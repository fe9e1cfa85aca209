package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// control is a text-protocol side connection for the commands that bracket
// the measured phases: INFO (the server's counter snapshot), SYNC and CRASH.
// It carries no measured traffic.
type control struct {
	nc net.Conn
	br *bufio.Reader
}

func dialControl(addr string) (*control, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &control{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}, nil
}

func (c *control) close() { c.nc.Close() }

func (c *control) line(cmd string) (string, error) {
	// CRASH runs a full recovery before it answers; nothing else takes long.
	c.nc.SetDeadline(time.Now().Add(120 * time.Second))
	if _, err := fmt.Fprintf(c.nc, "%s\n", cmd); err != nil {
		return "", fmt.Errorf("%s: %w", cmd, err)
	}
	l, err := c.br.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("%s: %w", cmd, err)
	}
	return strings.TrimRight(l, "\r\n"), nil
}

// expectOK runs a command whose reply must start with "OK".
func (c *control) expectOK(cmd string) (string, error) {
	l, err := c.line(cmd)
	if err != nil {
		return "", err
	}
	if l != "OK" && !strings.HasPrefix(l, "OK ") {
		return l, fmt.Errorf("%s: %s", cmd, l)
	}
	return l, nil
}

// info is one INFO snapshot: counter name → value.
type info map[string]int64

func (c *control) info() (info, error) {
	head, err := c.line("INFO")
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(strings.TrimPrefix(head, "INFO "))
	if err != nil {
		return nil, fmt.Errorf("INFO header %q", head)
	}
	out := make(info, n)
	for i := 0; i < n; i++ {
		l, err := c.br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("INFO line %d: %w", i, err)
		}
		name, val, ok := strings.Cut(strings.TrimRight(l, "\r\n"), " ")
		v, perr := strconv.ParseInt(val, 10, 64)
		if !ok || perr != nil {
			return nil, fmt.Errorf("INFO line %q", l)
		}
		out[name] = v
	}
	return out, nil
}

// delta is b − a, counter by counter.
func (b info) delta(a info) info {
	out := make(info, len(b))
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

// ratio is num ÷ den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
