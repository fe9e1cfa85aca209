// Server-side observability: one obs.Registry merging every layer's
// instruments — the engine's SGL/log counters, the store's group-commit and
// rehash counters, the heap's persist-operation totals, and the server's own
// connection/scheduler instruments — surfaced three ways: the -metrics HTTP
// listener (flat JSON snapshot plus net/http/pprof), the INFO wire command
// (the same snapshot as "name value" lines), and the -metrics-log periodic
// one-liner. Hot paths stamp pre-registered instruments (allocation-free,
// outside transaction bodies — see internal/obs and DESIGN.md §11); all
// merging happens here, at snapshot time.
package server

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"crafty"
	"crafty/internal/htm"
	"crafty/internal/obs"
	"crafty/internal/ptm"
)

// serverMetrics is the server's instrument block. The engine and store blocks
// (engM, kvM) are captured at startup and re-adopted into each recovered
// engine/store (Server.crash), so totals span crash incarnations; the
// engine's own per-thread outcome counters reset at reopen and are sampled
// as-is (they describe the current incarnation).
type serverMetrics struct {
	reg *obs.Registry

	engM *crafty.EngineMetrics
	kvM  *crafty.KVMetrics

	// Connection-level traffic: open/accepted connections, dispatched
	// commands, protocol-level errors, raw bytes each way, and the size
	// distribution of pipelined response bursts (responses per flush).
	conns      *obs.Gauge
	connsTotal *obs.Counter
	cmds       *obs.Counter
	cmdErrs    *obs.Counter
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
	bursts     *obs.Histogram

	// Binary protocol (wire.go): frames decoded, wire bytes consumed
	// (handshake and headers included), and framing/decode refusals. The
	// conn.* counters above cover both protocols; these isolate the binary
	// path so the two can be compared per protocol.
	wireFrames *obs.Counter
	wireBytes  *obs.Counter
	wireErrs   *obs.Counter

	// Scheduler: per-op enqueue→reply latency (stamped at parse time and at
	// render time, both outside any transaction), drained batch sizes, SYNC
	// barriers and their wall time.
	opLatency  *obs.Histogram
	drainBatch *obs.Histogram
	syncs      *obs.Counter
	syncWaitNs *obs.Histogram

	// Injected crashes and total recovery wall time (rollback + engine
	// reopen + index verification).
	crashes    *obs.Counter
	recoveryNs *obs.Histogram

	// Graceful-degradation and replication instruments. connsRefused counts
	// connections turned away by -max-conns; the repl counters are stamped by
	// the replication wiring (repl.go) and registered unconditionally so that
	// code never has to nil-check, but the repl.* gauges (groups, lag, roles)
	// are sampled only when replication is configured.
	connsRefused  *obs.Counter
	replSyncWaits *obs.Counter
	replSnapshots *obs.Counter
}

// newServerMetrics builds the registry over a fully constructed server. It
// must run after the workers exist (their queue-depth gauges close over the
// queues) and before any worker goroutine starts (workers record drained
// batch sizes unconditionally).
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:  reg,
		engM: s.eng.Metrics(),
		kvM:  s.store.Metrics(),
	}
	m.engM.RegisterInto(reg, "core")
	m.kvM.RegisterInto(reg, "kv")
	s.heap.RegisterMetrics(reg, "nvm")

	m.conns = reg.Gauge("conn.open")
	m.connsTotal = reg.Counter("conn.total")
	m.cmds = reg.Counter("conn.commands")
	m.cmdErrs = reg.Counter("conn.protocol_errors")
	m.bytesIn = reg.Counter("conn.bytes_in")
	m.bytesOut = reg.Counter("conn.bytes_out")
	m.bursts = reg.Histogram("conn.burst_responses")

	m.wireFrames = reg.Counter("wire.frames")
	m.wireBytes = reg.Counter("wire.bytes")
	m.wireErrs = reg.Counter("wire.protocol_errors")

	m.opLatency = reg.Histogram("sched.op_latency_ns")
	m.drainBatch = reg.Histogram("sched.drain_batch")
	m.syncs = reg.Counter("sched.syncs")
	m.syncWaitNs = reg.Histogram("sched.sync_wait_ns")

	m.crashes = reg.Counter("srv.crashes")
	m.recoveryNs = reg.Histogram("srv.recovery_ns")

	m.connsRefused = reg.Counter("conn.refused")
	m.replSyncWaits = reg.Counter("repl.sync_waits")
	m.replSnapshots = reg.Counter("repl.snapshots")

	if rs := s.repl; rs != nil {
		// Endpoints start after the registry exists (main wires listeners
		// last), so every sampler re-fetches them nil-safely.
		reg.Func("repl.groups", func() int64 { return int64(rs.log.LastSeq()) })
		reg.Func("repl.gen", func() int64 { return int64(rs.gen.Load()) })
		reg.Func("repl.is_replica", func() int64 {
			if rs.isReplica.Load() {
				return 1
			}
			return 0
		})
		reg.Func("repl.lag", func() int64 {
			if p := rs.getPrimary(); p != nil {
				return int64(p.Lag())
			}
			return 0
		})
		reg.Func("repl.replicas", func() int64 {
			if p := rs.getPrimary(); p != nil {
				return int64(p.Replicas())
			}
			return 0
		})
		reg.Func("repl.applied", func() int64 {
			if r := rs.getReplica(); r != nil {
				return int64(r.AppliedSeq())
			}
			return 0
		})
		reg.Func("repl.connected", func() int64 {
			if r := rs.getReplica(); r != nil && r.Connected() {
				return 1
			}
			return 0
		})
		reg.Func("repl.reconnects", func() int64 {
			if r := rs.getReplica(); r != nil {
				return int64(r.Reconnects())
			}
			return 0
		})
	}

	for _, w := range s.workers {
		w := w
		reg.Func(fmt.Sprintf("sched.worker%d.queue_depth", w.id),
			func() int64 { return int64(len(w.queue)) })
	}

	// Values other subsystems already maintain are pulled lazily, under the
	// server lock, so a concurrent CRASH never hands the sampler a
	// half-replaced engine. RehashStates is a racy non-transactional peek by
	// design (observability only).
	reg.Sampler(func(emit func(name string, v int64)) {
		s.mu.RLock()
		st := s.eng.Stats()
		ast := s.eng.Arena().Stats()
		zeroing, migrating := s.store.RehashStates(s.heap)
		s.mu.RUnlock()

		var txns uint64
		for o := 0; o < ptm.NumOutcomes; o++ {
			n := st.Persistent[o]
			txns += n
			emit("core.outcomes."+ptm.Outcome(o).MetricKey(), int64(n))
		}
		emit("core.txns", int64(txns))
		emit("core.writes", int64(st.Writes))
		emit("core.user_aborts", int64(st.UserAborts))
		emit("htm.commits", int64(st.HTM.Commits))
		for c := htm.CauseConflict; int(c) < htm.NumCauses; c++ {
			emit("htm.aborts."+c.String(), int64(st.HTM.Aborts[c]))
		}
		emit("arena.live_blocks", int64(ast.Live))
		emit("arena.live_words", int64(ast.LiveWords))
		emit("arena.free_blocks", int64(ast.FreeBlocks))
		emit("arena.free_words", int64(ast.FreeWords))
		emit("arena.used_words", int64(ast.UsedWords))
		emit("arena.capacity_words", int64(ast.DataWords))
		// Words the allocator can no longer account for: nonzero is a leak.
		emit("arena.leaked_words", int64(ast.UsedWords-ast.LiveWords-ast.FreeWords))
		emit("kv.rehash.zeroing_shards", int64(zeroing))
		emit("kv.rehash.migrating_shards", int64(migrating))
	})
	return m
}

// countWriter counts bytes on their way to the connection; it sits under the
// bufio.Writer, so the add happens once per flush, not once per response.
type countWriter struct {
	w      io.Writer
	c      *obs.Counter
	stripe int
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(cw.stripe, uint64(n))
	return n, err
}

// infoText renders the merged snapshot for the INFO command: a header
// with the line count, then one "name value" line per sample, so clients can
// read exactly the right number of lines without a terminator convention.
func (s *Server) infoText() string {
	samples := s.obs.reg.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "INFO %d", len(samples))
	for _, sm := range samples {
		b.WriteByte('\n')
		b.WriteString(sm.Name)
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%d", sm.Value)
	}
	return b.String()
}

// ServeMetrics serves the JSON snapshot and the pprof handlers on l. The mux
// is explicit (not http.DefaultServeMux) so importing net/http/pprof's
// side-effect registrations is unnecessary and nothing else can leak onto
// this listener.
func (s *Server) ServeMetrics(l net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.obs.reg.WriteJSON(w); err != nil {
			log.Printf("craftykv: metrics write: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(l, mux); err != nil {
			log.Printf("craftykv: metrics listener: %v", err)
		}
	}()
}

// StartMetricsLogger logs one summary line per interval until stop closes —
// the same background-goroutine pattern as the checkpointer. Rate-style
// fields are deltas against the previous snapshot; depth/latency fields are
// the current values.
func (s *Server) StartMetricsLogger(interval time.Duration, stop chan struct{}) {
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		prev := s.obs.reg.SnapshotMap()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				cur := s.obs.reg.SnapshotMap()
				log.Printf("craftykv: metrics %s", metricsLine(prev, cur))
				prev = cur
			}
		}
	}()
}

// metricsLine renders the periodic log line: interval deltas for the traffic
// counters, instantaneous values for gauges and quantiles.
func metricsLine(prev, cur map[string]int64) string {
	d := func(name string) int64 { return cur[name] - prev[name] }
	return fmt.Sprintf(
		"cmds=%d errs=%d txns=%d groups=%d group_aborts=%d fallbacks=%d sgl=%d syncs=%d crashes=%d conns=%d op_p99_ns=%d drain_p50=%d",
		d("conn.commands"), d("conn.protocol_errors"), d("core.txns"),
		d("kv.apply.groups"), d("kv.apply.group_aborts"), d("kv.apply.fallbacks"),
		d("core.sgl.entries"), d("sched.syncs"), d("srv.crashes"),
		cur["conn.open"], cur["sched.op_latency_ns.p99"], cur["sched.drain_batch.p50"])
}
