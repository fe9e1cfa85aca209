package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// startInstrumented is startServerCfg returning the server too, so tests can
// reach its registry and metrics listener.
func startInstrumented(t *testing.T) (*Server, string) {
	t.Helper()
	srv, err := New(Config{
		Shards:      8,
		Slots:       64,
		HeapWords:   1 << 22,
		ArenaWords:  1 << 20,
		Pool:        4,
		PersistProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
	return srv, l.Addr().String()
}

// info sends INFO and parses the "INFO <n>" header plus its n "name value"
// lines into a map.
func (c *client) info(t *testing.T) map[string]int64 {
	t.Helper()
	header := c.roundTrip(t, "INFO")
	if !strings.HasPrefix(header, "INFO ") {
		t.Fatalf("INFO header: got %q", header)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(header, "INFO "))
	if err != nil || n <= 0 {
		t.Fatalf("INFO count: %q (%v)", header, err)
	}
	m := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("metric line %d/%d: %v", i, n, err)
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("metric line %d: %q", i, line)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("metric line %d: %q: %v", i, line, err)
		}
		m[fields[0]] = v
	}
	return m
}

// TestInfoOverTCP drives pipelined load over the wire, then checks the INFO
// snapshot reports it: nonzero engine outcome totals, scheduler queue/drain
// and latency stats, and traffic counters — and that the counters survive an
// injected crash (the recovered engine and store re-adopt the startup
// metrics blocks).
func TestInfoOverTCP(t *testing.T) {
	_, addr := startInstrumented(t)
	c := dial(t, addr)

	// One pipelined burst of writes (all requests before any reply read),
	// then reads, then a SYNC so everything committed is visible.
	const n = 64
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "PUT key-%03d value-%03d\n", i, i)
	}
	if _, err := c.conn.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		line, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("PUT reply %d: %v", i, err)
		}
		if strings.TrimRight(line, "\r\n") != "OK" {
			t.Fatalf("PUT reply %d: %q", i, line)
		}
	}
	for i := 0; i < n; i++ {
		c.expect(t, fmt.Sprintf("GET key-%03d", i), fmt.Sprintf("VAL value-%03d", i))
	}
	c.expect(t, "SYNC", "OK")

	m := c.info(t)
	positive := []string{
		"core.txns",       // engine outcome counters, summed
		"htm.commits",     // hardware commits behind them
		"kv.apply.groups", // scheduler group commits
		"conn.commands",   // wire traffic
		"conn.bytes_in",
		"conn.bytes_out",
		"sched.op_latency_ns.count", // enqueue→reply latency histogram
		"sched.drain_batch.count",   // drained batch size histogram
		"sched.syncs",
		"nvm.fences", // persist traffic under the committed writes
	}
	for _, name := range positive {
		v, ok := m[name]
		if !ok {
			t.Errorf("INFO snapshot is missing %q", name)
		} else if v <= 0 {
			t.Errorf("%s = %d, want > 0 after load", name, v)
		}
	}
	// Per-outcome counters must be present and account for every committed
	// transaction.
	var outcomes int64
	for name, v := range m {
		if strings.HasPrefix(name, "core.outcomes.") {
			outcomes += v
		}
	}
	if outcomes != m["core.txns"] {
		t.Errorf("outcome counters sum to %d, core.txns = %d", outcomes, m["core.txns"])
	}
	if _, ok := m["sched.worker0.queue_depth"]; !ok {
		t.Error("INFO snapshot is missing per-worker queue depth gauges")
	}

	// Crash and recover; the totals must carry across the engine/store
	// replacement instead of resetting.
	groupsBefore := m["kv.apply.groups"]
	if got := c.roundTrip(t, "CRASH"); !strings.HasPrefix(got, "OK ") {
		t.Fatalf("CRASH: %q", got)
	}
	c.expect(t, "PUT post-crash value", "OK")
	m2 := c.info(t)
	if m2["srv.crashes"] != 1 {
		t.Errorf("srv.crashes = %d after one CRASH", m2["srv.crashes"])
	}
	if m2["srv.recovery_ns.count"] != 1 {
		t.Errorf("srv.recovery_ns.count = %d after one CRASH", m2["srv.recovery_ns.count"])
	}
	if m2["kv.apply.groups"] < groupsBefore {
		t.Errorf("kv.apply.groups fell from %d to %d across the crash; AdoptMetrics lost the totals",
			groupsBefore, m2["kv.apply.groups"])
	}
}

// TestMetricsHTTP serves the -metrics listener and checks the three
// observation surfaces agree: /metrics returns the same snapshot as INFO as
// flat JSON, and INFO over the binary protocol reports exactly the same key
// set as INFO over text (including the per-protocol wire.* counters, which
// exist in both and move only under binary traffic).
func TestMetricsHTTP(t *testing.T) {
	srv, addr := startInstrumented(t)
	ml, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ml.Close() })
	srv.ServeMetrics(ml)

	c := dial(t, addr)
	c.expect(t, "PUT web-key web-value", "OK")
	c.expect(t, "GET web-key", "VAL web-value")
	textInfo := c.info(t)

	resp, err := http.Get("http://" + ml.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	// Same key set as the INFO snapshot; values may differ (time passed
	// between the two snapshots) but plain monotonic counters can only grow
	// (gauges and histogram quantiles may move either way).
	monotonic := map[string]bool{
		"conn.total": true, "conn.commands": true, "conn.bytes_in": true,
		"conn.bytes_out": true, "core.txns": true, "htm.commits": true,
	}
	for name, v := range textInfo {
		got, ok := snap[name]
		if !ok {
			t.Errorf("/metrics is missing %q (present in INFO)", name)
			continue
		}
		if monotonic[name] && got < v {
			t.Errorf("%s shrank from %d (INFO) to %d (/metrics)", name, v, got)
		}
	}
	if len(snap) < len(textInfo) {
		t.Errorf("/metrics has %d samples, INFO had %d", len(snap), len(textInfo))
	}
	if snap["core.txns"] <= 0 {
		t.Errorf("core.txns = %d over HTTP, want > 0", snap["core.txns"])
	}

	// The text snapshot carries the binary path's counters (registered
	// unconditionally), idle so far.
	for _, name := range []string{"wire.frames", "wire.bytes", "wire.protocol_errors"} {
		if _, ok := textInfo[name]; !ok {
			t.Errorf("INFO over text is missing %q", name)
		}
	}

	// INFO over the binary protocol: drive some frames first so the wire.*
	// counters move, then compare key sets both ways.
	bc := dialTyped(t, addr, true)
	if err := bc.Put("bin-key", "bin-value"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := bc.Get("bin-key"); err != nil || !ok || v != "bin-value" {
		t.Fatalf("binary Get = %q, %t, %v", v, ok, err)
	}
	binInfo, err := bc.Info()
	if err != nil {
		t.Fatal(err)
	}
	for name := range textInfo {
		if _, ok := binInfo[name]; !ok {
			t.Errorf("INFO over binary is missing %q (present over text)", name)
		}
	}
	for name := range binInfo {
		if _, ok := textInfo[name]; !ok {
			t.Errorf("INFO over text is missing %q (present over binary)", name)
		}
	}
	if binInfo["wire.frames"] <= 0 {
		t.Errorf("wire.frames = %d after binary traffic, want > 0", binInfo["wire.frames"])
	}
	if binInfo["wire.bytes"] <= 0 {
		t.Errorf("wire.bytes = %d after binary traffic, want > 0", binInfo["wire.bytes"])
	}
}
