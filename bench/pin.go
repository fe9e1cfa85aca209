package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The server workloads run the client and the server on one core, one
// thread each. Why, measured on this kind of VM:
//
//   - a loopback round trip between two cores costs two wake-ups of an idle
//     virtual CPU (12 µs on one core, 60 µs across two), and which of the two
//     the kernel picks for a woken thread changes from second to second, so
//     an unpinned solo round trip is bimodal and its percentiles move by a
//     third between identical runs;
//   - a core that has idled runs at about half speed for the next second, so
//     a closed loop that lets a core idle between bursts measures the host's
//     idle policy;
//   - more runnable threads than cores measure the kernel's scheduler.
//
// On one core neither side ever waits for a wake-up from idle: a request is
// a write, a context switch, the server's work, a write and a switch back —
// the program's own path and nothing else. The price is that throughput
// counts the client's cycles too (about a fifth on read-single).

// cpuSet is a kernel affinity mask (1,024 CPUs).
type cpuSet [16]uint64

func (s *cpuSet) last() int {
	for w := len(s) - 1; w >= 0; w-- {
		for b := 63; b >= 0; b-- {
			if s[w]&(1<<b) != 0 {
				return w*64 + b
			}
		}
	}
	return -1
}

func getAffinity() (cpuSet, error) {
	var s cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); errno != 0 {
		return s, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return s, nil
}

// setAffinity confines every thread of this process to s. Threads and
// children started afterwards inherit it from whichever thread starts them.
func setAffinity(s cpuSet) error {
	// Twice: a thread created while the first pass ran may have been missed,
	// but its creator was either already confined or is caught now.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
				return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return nil
}

// oneCore confines this process — and the server it then starts — to the
// highest-numbered CPU it may use (the lowest takes most interrupts) and its
// Go code to one thread. It returns the CPU, or -1 if the kernel refused, in
// which case the run goes on unpinned and the environment stamp says so, and
// a function that undoes both.
func oneCore() (cpu int, restore func()) {
	procs := runtime.GOMAXPROCS(1)
	unpinned := func() { runtime.GOMAXPROCS(procs) }
	old, err := getAffinity()
	if err != nil {
		return -1, unpinned
	}
	var one cpuSet
	cpu = old.last()
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(one); err != nil {
		setAffinity(old) // some threads may have moved; a failure here changes nothing we can act on
		return -1, unpinned
	}
	return cpu, func() {
		setAffinity(old) // as above
		runtime.GOMAXPROCS(procs)
	}
}
