// Replication and failover drills: a primary and a replica in one process,
// the wire between them real TCP (optionally wrapped in netfault), the
// failure the drills inject the one replication exists for — the primary
// dying mid-burst. The core invariant every drill checks: a replica's state
// is always exactly the replay of a prefix of whole commit groups, so no
// acknowledged (SYNC-fenced) write is lost and no half-applied group is ever
// visible after a promotion.
package server

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"crafty/internal/kv"
	"crafty/internal/kvclient"
	"crafty/internal/repl"
	"crafty/internal/repl/netfault"
)

// replCfg is the drills' base sizing; roles are layered on per test.
func replCfg() Config {
	return Config{
		Shards:      8,
		Slots:       64,
		HeapWords:   1 << 22,
		ArenaWords:  1 << 20,
		Pool:        4,
		PersistProb: 0.5,
		ReplLogCap:  1 << 14,
	}
}

// replNode is one server with its client listener and, for primaries, its
// replication listener — plus kill support for failover drills.
type replNode struct {
	srv      *Server
	l, rl    net.Listener
	addr     string
	replAddr string
}

// startReplNode mirrors main(): build the server, then start whichever
// replication endpoints the config names. A cfg.ReplListen of "auto" gets an
// ephemeral listener.
func startReplNode(t *testing.T, cfg Config) *replNode {
	t.Helper()
	wantPrimary := cfg.ReplListen != ""
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	n := &replNode{srv: srv, l: l, addr: l.Addr().String()}
	if wantPrimary {
		rl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv.StartPrimary(rl)
		n.rl = rl
		n.replAddr = rl.Addr().String()
	}
	if cfg.ReplicaOf != "" {
		srv.StartReplica(cfg.ReplicaOf, cfg.ReplDial)
	}
	t.Cleanup(n.kill)
	return n
}

// kill simulates the process dying: no listener answers and every
// replication session is severed mid-frame. In-process state (the retained
// group log) stays readable for the drill's assertions. Idempotent.
func (n *replNode) kill() {
	n.l.Close()
	if n.rl != nil {
		n.rl.Close()
	}
	if rs := n.srv.repl; rs != nil {
		if p := rs.getPrimary(); p != nil {
			p.Close()
		}
		if r := rs.getReplica(); r != nil {
			r.Stop()
		}
	}
}

func waitFor(t *testing.T, d time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// settleLog waits until no worker is still appending (the post-kill drain of
// already-queued batches) and returns the final sequence.
func settleLog(l *repl.Log) uint64 {
	for {
		s := l.LastSeq()
		time.Sleep(150 * time.Millisecond)
		if l.LastSeq() == s {
			return s
		}
	}
}

// replayGroups computes the state an honest replica at position upTo must
// hold: the replay of whole groups 1..upTo, nothing more.
func replayGroups(t *testing.T, gs []repl.Group, upTo uint64) map[string]string {
	t.Helper()
	if len(gs) > 0 && gs[0].Seq != 1 {
		t.Fatalf("retained log starts at %d, not 1 (trimmed; raise ReplLogCap)", gs[0].Seq)
	}
	m := map[string]string{}
	for _, g := range gs {
		if g.Seq > upTo {
			break
		}
		for _, op := range g.Ops {
			if op.Kind == kv.OpDelete {
				delete(m, string(op.Key))
			} else {
				m[string(op.Key)] = string(op.Value)
			}
		}
	}
	return m
}

// promote issues PROMOTE on a replica and returns the announced position.
func promote(t *testing.T, addr string) (gen, seq uint64) {
	t.Helper()
	c := dial(t, addr)
	reply := c.roundTrip(t, "PROMOTE")
	if _, err := fmt.Sscanf(reply, "OK gen=%d seq=%d", &gen, &seq); err != nil {
		t.Fatalf("PROMOTE: %q", reply)
	}
	return gen, seq
}

// assertPrefixState checks the promoted node serves exactly expect (plus the
// reserved position record, which the text protocol cannot reach but LEN
// counts).
func assertPrefixState(t *testing.T, addr string, expect map[string]string) {
	t.Helper()
	cl, err := kvclient.Dial(addr, kvclient.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	n, err := cl.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(expect))+1 {
		t.Fatalf("LEN %d, want %d replayed keys + 1 position record", n, len(expect))
	}
	for k, v := range expect {
		got, ok, err := cl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != v {
			t.Fatalf("GET %s: got %q (present=%t), want %q — not the whole-group prefix", k, got, ok, v)
		}
	}
}

// TestReplicationFollowAndRefusal is the wiring smoke test: a replica tails
// the primary, serves reads, refuses writes, and both sides expose the repl
// counters over REPLINFO, INFO, and /metrics.
func TestReplicationFollowAndRefusal(t *testing.T) {
	pCfg := replCfg()
	pCfg.ReplListen = "auto"
	p := startReplNode(t, pCfg)
	rCfg := replCfg()
	rCfg.ReplicaOf = p.replAddr
	r := startReplNode(t, rCfg)

	cl, err := kvclient.Dial(p.addr, kvclient.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const keys = 20
	for i := 0; i < keys; i++ {
		if err := cl.Put(fmt.Sprintf("f-%d", i), fmt.Sprintf("v-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "replica to catch up", func() bool {
		rep := r.srv.repl.getReplica()
		return rep != nil && rep.AppliedSeq() == p.srv.repl.log.LastSeq()
	})

	rc := dial(t, r.addr)
	for i := 0; i < keys; i += 5 {
		rc.expect(t, fmt.Sprintf("GET f-%d", i), fmt.Sprintf("VAL v-%d", i))
	}
	// The replica holds the replayed keys plus its reserved position record.
	rc.expect(t, "LEN", fmt.Sprintf("LEN %d", keys+1))
	refusal := "ERR " + errReadOnlyReplica.Error()
	rc.expect(t, "PUT f-0 hijack", refusal)
	rc.expect(t, "MPUT a 1 b 2", refusal)
	rc.expect(t, "DEL f-0", refusal)
	rc.expect(t, "GET f-0", "VAL v-0")

	if info := rc.roundTrip(t, "REPLINFO"); !strings.Contains(info, "role=replica") {
		t.Fatalf("replica REPLINFO: %q", info)
	}
	pc := dial(t, p.addr)
	pinfo := pc.roundTrip(t, "REPLINFO")
	if !strings.Contains(pinfo, "role=primary") || !strings.Contains(pinfo, "replicas=1") {
		t.Fatalf("primary REPLINFO: %q", pinfo)
	}

	// INFO carries the repl instruments.
	samples := infoSnapshot(t, pc)
	if got := samples["repl.groups"]; got != int64(p.srv.repl.log.LastSeq()) {
		t.Fatalf("INFO repl.groups = %d, want %d", got, p.srv.repl.log.LastSeq())
	}
	for _, name := range []string{"repl.lag", "repl.sync_waits", "repl.replicas"} {
		if _, ok := samples[name]; !ok {
			t.Fatalf("INFO missing %q", name)
		}
	}
	if samples["repl.replicas"] != 1 {
		t.Fatalf("INFO repl.replicas = %d, want 1", samples["repl.replicas"])
	}

	// /metrics serves the same registry as JSON.
	ml, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	p.srv.ServeMetrics(ml)
	resp, err := http.Get("http://" + ml.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{`"repl.groups"`, `"repl.lag"`, `"repl.sync_waits"`} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics missing %s: %s", name, body)
		}
	}
}

// infoSnapshot fetches and parses one INFO reply.
func infoSnapshot(t *testing.T, c *client) map[string]int64 {
	t.Helper()
	header := c.roundTrip(t, "INFO")
	var n int
	if _, err := fmt.Sscanf(header, "INFO %d", &n); err != nil {
		t.Fatalf("INFO header %q", header)
	}
	out := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		line := c.readLine(t)
		var name string
		var v int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &v); err != nil {
			t.Fatalf("INFO line %q", line)
		}
		out[name] = v
	}
	return out
}

// TestFailoverDrillSync is the headline drill: with -repl-sync, a SYNC "OK"
// means everything before it is durable on the replica — so when the primary
// is killed in the middle of a later pipelined MPUT burst, promoting the
// replica must surface every fenced write, and the unacknowledged suffix must
// be a prefix of whole groups, never a half-applied batch.
func TestFailoverDrillSync(t *testing.T) {
	pCfg := replCfg()
	pCfg.ReplListen = "auto"
	pCfg.ReplSync = true
	pCfg.ReplSyncTimeout = 20 * time.Second
	p := startReplNode(t, pCfg)
	rCfg := replCfg()
	rCfg.ReplicaOf = p.replAddr
	r := startReplNode(t, rCfg)
	waitFor(t, 10*time.Second, "replica to attach", func() bool {
		return p.srv.repl.getPrimary().Replicas() == 1
	})

	cl, err := kvclient.Dial(p.addr, kvclient.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const acked = 40
	for i := 0; i < acked; i++ {
		if err := cl.Put(fmt.Sprintf("acked-%d", i), fmt.Sprintf("av-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// The acknowledgement the drill is about: after this, every acked-* write
	// is durable on the replica (the barrier fenced the log's last sequence).
	if err := cl.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := p.srv.obs.replSyncWaits.Value(); got < 1 {
		t.Fatalf("repl.sync_waits = %d after a -repl-sync SYNC", got)
	}

	// Unacknowledged suffix: a pipelined MPUT burst nobody waits for, with the
	// primary killed mid-flight.
	burstConn, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	var burst strings.Builder
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&burst, "MPUT u%d x%d u%d y%d\n", 2*i, i, 2*i+1, i)
	}
	go burstConn.Write([]byte(burst.String()))
	time.Sleep(3 * time.Millisecond)
	p.kill()
	burstConn.Close()

	settleLog(p.srv.repl.log)
	retained := p.srv.repl.log.Retained()

	_, seq := promote(t, r.addr)
	expect := replayGroups(t, retained, seq)
	for i := 0; i < acked; i++ {
		k := fmt.Sprintf("acked-%d", i)
		if expect[k] != fmt.Sprintf("av-%d", i) {
			t.Fatalf("SYNC-acknowledged write %s missing from the replica's prefix (pos %d)", k, seq)
		}
	}
	assertPrefixState(t, r.addr, expect)

	// The promoted node serves writes; the failed-over client just repoints.
	cl.SetAddr(r.addr)
	if err := cl.Put("post-failover", "yes"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get("post-failover"); err != nil || !ok || v != "yes" {
		t.Fatalf("write after failover: %q %t %v", v, ok, err)
	}
	rc := dial(t, r.addr)
	if info := rc.roundTrip(t, "REPLINFO"); !strings.Contains(info, "role=primary") {
		t.Fatalf("promoted REPLINFO: %q", info)
	}
	if reply := rc.roundTrip(t, "PROMOTE"); !strings.HasPrefix(reply, "ERR already primary") {
		t.Fatalf("second PROMOTE: %q", reply)
	}
}

// TestFailoverDrillNetfault repeats the kill-mid-burst drill with the
// replication link behind seeded random faults (drops, delays, partial
// writes, severs). Whatever the fault schedule did to the stream, the
// promoted replica must hold exactly a whole-group prefix.
func TestFailoverDrillNetfault(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pCfg := replCfg()
			pCfg.ReplListen = "auto"
			p := startReplNode(t, pCfg)
			rCfg := replCfg()
			rCfg.ReplicaOf = p.replAddr
			rCfg.ReplDial = netfault.Dialer(func() netfault.Policy {
				return netfault.NewRandomPolicy(seed, netfault.Probs{
					Drop: 0.05, Delay: 0.05, Partial: 0.03, Sever: 0.02,
				})
			})
			r := startReplNode(t, rCfg)

			cl, err := kvclient.Dial(p.addr, kvclient.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 10; i++ {
				if err := cl.Put(fmt.Sprintf("base-%d", i), fmt.Sprintf("b-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			// Let the replica survive the fault schedule far enough to record
			// a position, so the drill exercises a non-empty prefix.
			waitFor(t, 20*time.Second, "replica first progress", func() bool {
				rep := r.srv.repl.getReplica()
				return rep != nil && rep.AppliedSeq() > 0
			})

			burstConn, err := net.Dial("tcp", p.addr)
			if err != nil {
				t.Fatal(err)
			}
			var burst strings.Builder
			for i := 0; i < 150; i++ {
				fmt.Fprintf(&burst, "MPUT n%d a%d n%d b%d\n", 2*i, i, 2*i+1, i)
			}
			go burstConn.Write([]byte(burst.String()))
			time.Sleep(10 * time.Millisecond)
			p.kill()
			burstConn.Close()

			settleLog(p.srv.repl.log)
			retained := p.srv.repl.log.Retained()

			_, seq := promote(t, r.addr)
			assertPrefixState(t, r.addr, replayGroups(t, retained, seq))
		})
	}
}

// TestReplicaCrashMidStream crashes the replica while it is attached to a
// live primary. Round 1 fences the position first (SYNC on the replica) and
// asserts the session resumes from the durable watermark over the stream — no
// snapshot transfer. Round 2 crashes with unfenced tail state and only
// demands convergence (the epoch checks route the session through whichever
// of rewind or resync is sound), re-applying overlapping groups idempotently.
func TestReplicaCrashMidStream(t *testing.T) {
	pCfg := replCfg()
	pCfg.ReplListen = "auto"
	p := startReplNode(t, pCfg)
	rCfg := replCfg()
	rCfg.ReplicaOf = p.replAddr
	r := startReplNode(t, rCfg)

	cl, err := kvclient.Dial(p.addr, kvclient.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	put := func(prefix string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := cl.Put(fmt.Sprintf("%s-%d", prefix, i), fmt.Sprintf("%s-v%d", prefix, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	converged := func() bool {
		rep := r.srv.repl.getReplica()
		return rep != nil && rep.AppliedSeq() == p.srv.repl.log.LastSeq()
	}

	put("one", 50)
	waitFor(t, 10*time.Second, "initial catch-up", converged)

	// CRASH replies only after recovery completes, which the race detector
	// stretches past the client's default per-op timeout — and a timed-out
	// CRASH gets retried, re-crashing the freshly recovered server every
	// attempt. Size the timeout so one attempt always covers recovery.
	rc, err := kvclient.Dial(r.addr, kvclient.Config{Seed: 12, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	// Fence the replica's position, then crash it.
	if err := rc.Sync(); err != nil {
		t.Fatal(err)
	}
	snapsBefore := r.srv.repl.getReplica().Snapshots()
	if reply, err := rc.Do("CRASH"); err != nil || !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("replica CRASH: %q %v", reply, err)
	}

	// New primary traffic trips the epoch check, the session rewinds to the
	// fenced watermark, and tails the stream — no snapshot.
	put("two", 50)
	waitFor(t, 15*time.Second, "post-crash catch-up", converged)
	if got := r.srv.repl.getReplica().Snapshots(); got != snapsBefore {
		t.Fatalf("replica resynced via snapshot (%d -> %d); a fenced position must resume from the stream", snapsBefore, got)
	}
	v, ok, err := rc.Get("two-49")
	if err != nil || !ok || v != "two-v49" {
		t.Fatalf("replica after crash: two-49 = %q %t %v", v, ok, err)
	}

	// Round 2: unfenced tail, then crash. Overlapping groups are re-applied;
	// overwrites of round-1 keys must land on their final values.
	put("one", 50) // overwrite with identical values: re-apply is observable as "still correct"
	put("three", 50)
	if reply, err := rc.Do("CRASH"); err != nil || !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("second replica CRASH: %q %v", reply, err)
	}
	put("four", 20)
	waitFor(t, 20*time.Second, "second post-crash catch-up", converged)
	for _, probe := range []struct{ k, v string }{
		{"one-0", "one-v0"}, {"three-49", "three-v49"}, {"four-19", "four-v19"},
	} {
		v, ok, err := rc.Get(probe.k)
		if err != nil || !ok || v != probe.v {
			t.Fatalf("replica after second crash: %s = %q %t %v, want %q", probe.k, v, ok, err, probe.v)
		}
	}
}

// TestReplicaSyncConcurrentWithCrash is the replication edition of the
// barrier/crash canary: while the primary streams a steady write load into
// the replica's applier, one connection SYNCs the replica in a loop and
// another CRASHes it. A lock-discipline regression between the applier's
// scheduler submissions, the SYNC barrier, and the crash handler hangs the
// test; the epoch checks must also heal every interleaving, so the replica
// converges once the chaos stops.
func TestReplicaSyncConcurrentWithCrash(t *testing.T) {
	pCfg := replCfg()
	pCfg.ReplListen = "auto"
	p := startReplNode(t, pCfg)
	rCfg := replCfg()
	rCfg.ReplicaOf = p.replAddr
	r := startReplNode(t, rCfg)

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() { // steady primary load keeps replicated applies in flight
		defer close(writerDone)
		cl, err := kvclient.Dial(p.addr, kvclient.Config{Seed: 21})
		if err != nil {
			return
		}
		defer cl.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cl.Put(fmt.Sprintf("w-%d", i%64), fmt.Sprintf("v-%d", i))
		}
	}()

	syncer := dial(t, r.addr)
	crasher := dial(t, r.addr)
	for i := 0; i < 10; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if got := syncer.roundTrip(t, "SYNC"); got != "OK" {
				t.Errorf("replica SYNC: %q", got)
			}
		}()
		if reply := crasher.roundTrip(t, "CRASH"); !strings.HasPrefix(reply, "OK ") {
			t.Fatalf("replica CRASH: %q", reply)
		}
		<-done
	}
	close(stop)
	<-writerDone

	// Chaos over: the replica must heal and follow again.
	cl, err := kvclient.Dial(p.addr, kvclient.Config{Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		if err := cl.Put(fmt.Sprintf("settle-%d", i), fmt.Sprintf("s-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "replica to heal after crash chaos", func() bool {
		rep := r.srv.repl.getReplica()
		return rep != nil && rep.AppliedSeq() == p.srv.repl.log.LastSeq()
	})
	rc := dial(t, r.addr)
	for i := 0; i < 10; i++ {
		rc.expect(t, fmt.Sprintf("GET settle-%d", i), fmt.Sprintf("VAL s-%d", i))
	}
}
