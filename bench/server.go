package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles ./cmd/craftykv of the tree under test into outDir.
// Build time is never part of any metric.
func buildServer(repoRoot, outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, "craftykv")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/craftykv")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/craftykv in %s: %v\n%s", repoRoot, err, out)
	}
	return bin, nil
}

// serverProc is a running craftykv child.
type serverProc struct {
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	tail []string // last lines of the child's log
	done chan struct{}
}

// children tracks every live child process so that any exit path — error
// return, panic, signal — can kill them (main installs the signal handler;
// tests call killChildren in cleanup).
var children struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

func adopt(c *serverProc) {
	children.Lock()
	defer children.Unlock()
	if children.procs == nil {
		children.procs = map[*serverProc]struct{}{}
	}
	children.procs[c] = struct{}{}
}

// disown removes c from the registry, reporting whether it was still there
// (false: someone else is already stopping it).
func disown(c *serverProc) bool {
	children.Lock()
	defer children.Unlock()
	_, live := children.procs[c]
	delete(children.procs, c)
	return live
}

func killChildren() {
	children.Lock()
	procs := make([]*serverProc, 0, len(children.procs))
	for p := range children.procs {
		procs = append(procs, p)
	}
	children.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

var servingRE = regexp.MustCompile(`serving on (\S+)`)

// serverEnv is the Go runtime configuration of every measured server, the
// same on both sides of any comparison. One thread: see pin.go. GOGC=25: the
// server's live heap is 345 MB, nearly all of it the emulated NVM, so at the
// default 100 a collection happens every 160 MB of request garbage — every
// five to ten seconds — and throughput steps up by a tenth after each one
// (the heap stops growing into fresh pages and reuses warm ones): a loaded
// phase would see one and a half such cycles, and which half it saw would
// decide the figure. At 25 a cycle lasts a second or two and a phase spans
// ten; a collection itself costs under a millisecond either way.
var serverEnv = []string{"GOMAXPROCS=1", "GOGC=25"}

// startServer launches bin with args under serverEnv — on the CPUs this
// process is confined to, which the child inherits — and waits for its
// "serving on <addr>" log line.
func startServer(bin string, args []string) (*serverProc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), serverEnv...)
	// Belt and braces: if this process dies without running its cleanup
	// (SIGKILL, a crash in another goroutine), the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, done: make(chan struct{})}
	adopt(p)

	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
			if m := servingRE.FindStringSubmatch(line); m != nil && !sent {
				sent = true
				addrCh <- m[1]
			}
		}
	}()
	select {
	case p.addr = <-addrCh:
		return p, nil
	case <-p.done:
		p.stop()
		return nil, fmt.Errorf("craftykv exited before serving:\n%s", p.log())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("craftykv did not report its address within 30s:\n%s", p.log())
	}
}

func (p *serverProc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// stop kills the child and waits until it has ended; safe to call twice.
func (p *serverProc) stop() {
	if !disown(p) {
		return
	}
	p.cmd.Process.Kill()
	<-p.done // the log reader sees EOF once the child is gone
	p.cmd.Wait()
}

// peakRSSMB reads a process's high-water resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
