// Graceful-degradation tests: the -max-conns admission limit and the
// -conn-timeout idle/stall bound. Overload and dead peers must cost the
// server an explicit refusal or a closed connection, never an unbounded
// goroutine or fd.
package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

func TestMaxConnsRefusal(t *testing.T) {
	cfg := replCfg()
	cfg.MaxConns = 2
	addr := startServerCfg(t, cfg)

	c1 := dial(t, addr)
	c1.expect(t, "PUT held one", "OK")
	c2 := dial(t, addr)
	c2.expect(t, "GET held", "VAL one")

	// Third connection: explicit refusal, then the server hangs up.
	over, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	r := bufio.NewReader(over)
	over.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimRight(line, "\r\n"); got != "ERR too many connections" {
		t.Fatalf("over-limit connection got %q", got)
	}
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("over-limit connection left open")
	}

	// Releasing a slot readmits. The decrement runs as c1's handler exits, so
	// poll briefly.
	c1.conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		rr := bufio.NewReader(conn)
		fmt.Fprintf(conn, "GET held\n")
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := rr.ReadString('\n')
		conn.Close()
		if err == nil && strings.TrimRight(line, "\r\n") == "VAL one" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %q %v", line, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestConnTimeoutClosesIdleConnection(t *testing.T) {
	cfg := replCfg()
	cfg.ConnTimeout = 150 * time.Millisecond
	addr := startServerCfg(t, cfg)

	c := dial(t, addr)
	c.expect(t, "PUT live v", "OK")
	// Go idle past the bound: the server's read deadline fires and the
	// connection closes.
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("idle connection still open past -conn-timeout")
	}

	// A fresh, active connection is unaffected: traffic re-arms the deadline.
	c2 := dial(t, addr)
	for i := 0; i < 5; i++ {
		time.Sleep(60 * time.Millisecond) // under the bound, repeatedly
		c2.expect(t, "GET live", "VAL v")
	}
}
