// Replication wiring: how the repl package's Primary/Replica endpoints plug
// into this server's scheduler and crash discipline.
//
// Primary side: each worker, immediately after its Store.Apply group commit
// returns, appends the batch's committed mutations to a shared repl.Log
// (scheduler.go, worker.tap). Appends happen before the worker can park at a
// SYNC rendezvous, so by the barrier's fully-quiesced point the log covers
// every write the barrier covers — which is what lets -repl-sync implement
// "acknowledged ⇒ durable on the replica" by fencing the log's last sequence
// inside the barrier window. A CRASH bumps the replication generation and
// clears the log: groups streamed before the crash may have rolled back, so
// every replica is severed and resynced from a snapshot.
//
// Replica side: a kvApplier turns streamed groups into scheduler requests —
// the same submit/drain/Apply path client writes take — and then records the
// stream position in a reserved key (leading NUL byte, unreachable from the
// text protocol, never tapped or snapshotted). The position request is
// submitted only after the data requests complete, so its commit timestamp
// exceeds theirs and suffix rollback can never keep the position while
// dropping the data: the durable position is always ≤ the applied prefix,
// and re-applying from position+1 is idempotent. A crash that lands in the
// middle of an apply window is detected by the server's crash epoch and
// poisons the position (deleted, durably), forcing a snapshot resync instead
// of trusting a position that might be ahead of recovered data.
package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crafty"
	"crafty/internal/repl"
	"crafty/internal/wire"
)

// replPosKey is the replica's durable stream-position record: "<gen> <seq>".
// The leading NUL keeps it out of the text protocol's reach (keys are
// space-split tokens of request lines, but the tap and snapshot exclude the
// prefix explicitly too).
var replPosKey = []byte("\x00repl.pos")

// replReserved reports whether a key belongs to the replication machinery
// itself and must never be streamed or snapshotted.
func replReserved(key []byte) bool { return len(key) > 0 && key[0] == 0 }

// replState is the server's replication half: role, generation, the group
// log, and whichever endpoint (primary, replica, or both across a
// promotion) is active.
type replState struct {
	srv *Server

	log *repl.Log
	// gen is the replication generation. A fresh primary starts at 1; every
	// primary CRASH recovery and every promotion bumps it, forcing replicas
	// whose streamed prefix may disagree with the recovered state through
	// the snapshot path.
	gen atomic.Uint64
	// isReplica gates the write path: while true, client mutations are
	// refused and worker batches are not tapped (the applier's own writes
	// route through the same workers). PROMOTE flips it last.
	isReplica atomic.Bool

	syncMode    bool
	syncTimeout time.Duration

	mu      sync.Mutex
	primary *repl.Primary
	replica *repl.Replica
	applier *kvApplier
}

func newReplState(s *Server, cfg Config) *replState {
	rs := &replState{
		srv:         s,
		log:         repl.NewLog(cfg.ReplLogCap),
		syncMode:    cfg.ReplSync,
		syncTimeout: cfg.ReplSyncTimeout,
	}
	if rs.syncTimeout <= 0 {
		rs.syncTimeout = 5 * time.Second
	}
	rs.applier = &kvApplier{s: s}
	rs.gen.Store(1)
	if cfg.ReplicaOf != "" {
		rs.isReplica.Store(true)
	}
	return rs
}

func (rs *replState) getPrimary() *repl.Primary {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.primary
}

func (rs *replState) getReplica() *repl.Replica {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.replica
}

// tapping reports whether worker batches should be appended to the log:
// replication configured and currently acting as primary.
func (rs *replState) tapping() bool { return !rs.isReplica.Load() }

// StartPrimary serves the replication protocol on l (the -repl-listen
// address). It is safe to start while still a replica: handshakes are
// refused with "not primary" until a PROMOTE flips the role.
func (s *Server) StartPrimary(l net.Listener) {
	rs := s.repl
	p := repl.NewPrimary(repl.PrimaryConfig{
		Log:      rs.log,
		Snapshot: s.replSnapshot,
		Gen:      rs.gen.Load,
		Accept: func() error {
			if rs.isReplica.Load() {
				return fmt.Errorf("not primary")
			}
			if s.recovering.Load() {
				return fmt.Errorf("recovering, retry shortly")
			}
			return nil
		},
		Logf: log.Printf,
	})
	rs.mu.Lock()
	rs.primary = p
	rs.mu.Unlock()
	go p.Serve(l)
}

// StartReplica begins replicating from the -replica-of primary. A nil dial
// falls back to the config's ReplDial (the drills' netfault injection point)
// and then to plain TCP.
func (s *Server) StartReplica(primaryAddr string, dial func(string) (net.Conn, error)) {
	rs := s.repl
	if dial == nil {
		dial = s.cfg.ReplDial
	}
	r := repl.NewReplica(repl.ReplicaConfig{
		Addr:    primaryAddr,
		Dial:    dial,
		Applier: rs.applier,
		Logf:    log.Printf,
	})
	rs.mu.Lock()
	rs.replica = r
	rs.mu.Unlock()
	go r.Run()
}

// replSnapshot is the Primary's catch-up source: under the SYNC barrier's
// fully-quiesced window it checkpoints (so the on-NVM watermark matches what
// the replica receives) and walks the whole store, recording the log
// sequence the state corresponds to. Reserved keys stay out.
func (s *Server) replSnapshot() (puts []crafty.KVOp, seq, gen uint64, err error) {
	rs := s.repl
	err = s.syncWith(func() error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if _, err := s.store.Checkpoint(s.eng); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		puts = puts[:0]
		if err := s.store.Snapshot(s.heap, func(e crafty.KVSnapshotEntry) error {
			if replReserved(e.Key) {
				return nil
			}
			buf := make([]byte, 0, len(e.Key)+len(e.Value))
			buf = append(buf, e.Key...)
			buf = append(buf, e.Value...)
			puts = append(puts, crafty.KVOp{Kind: crafty.KVPut, Key: buf[:len(e.Key)], Value: buf[len(e.Key):]})
			return nil
		}); err != nil {
			return err
		}
		seq = rs.log.LastSeq()
		gen = rs.gen.Load()
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	s.obs.replSnapshots.Inc(0)
	return puts, seq, gen, nil
}

// replicatedSync is the SYNC command's implementation. Plain mode is the
// usual barrier. In -repl-sync mode (acting as primary), the barrier's
// fully-quiesced hook additionally waits for a replica to durably
// acknowledge the log's last sequence — every write the barrier covers is in
// the log by then (appends precede barrier parking in each worker's queue),
// so a successful reply means: rollback-proof here AND on a replica. A
// missing or stalled replica fails the SYNC loudly within the timeout.
func (s *Server) replicatedSync() error {
	rs := s.repl
	if rs == nil || !rs.syncMode || rs.isReplica.Load() {
		return s.sync()
	}
	p := rs.getPrimary()
	if p == nil {
		return s.sync()
	}
	return s.syncWith(func() error {
		seq := rs.log.LastSeq()
		s.obs.replSyncWaits.Inc(0)
		return p.WaitDurable(seq, rs.syncTimeout)
	})
}

// onCrashRecovered runs at the end of a CRASH recovery, still under the
// write lock: streamed groups may have rolled back with the rest of the
// suffix, so the retained log is untrustworthy — bump the generation, drop
// the log, and sever every replica so they re-handshake into the snapshot
// path. Replica role needs nothing: its own applier detects the crash via
// the epoch and poisons its position if the crash split an apply window.
func (s *Server) onCrashRecovered() {
	s.crashEpoch.Add(1)
	rs := s.repl
	if rs == nil || rs.isReplica.Load() {
		return
	}
	rs.gen.Add(1)
	rs.log.Clear()
	if p := rs.getPrimary(); p != nil {
		p.Sever()
	}
}

// promote flips a replica into a primary: stop pulling from the old
// primary, quiesce and checkpoint, then start accepting (and tapping)
// writes under a fresh generation. The stream position it had applied seeds
// the log's numbering, so REPLINFO sequences stay comparable across the
// failover.
func (s *Server) promote() (string, error) {
	rs := s.repl
	if rs == nil {
		return "", fmt.Errorf("replication not configured")
	}
	if !rs.isReplica.Load() {
		return "", fmt.Errorf("already primary")
	}
	rs.mu.Lock()
	r := rs.replica
	rs.replica = nil
	rs.mu.Unlock()
	if r != nil {
		r.Stop()
	}
	// The stopped session may still have an apply request in flight on the
	// scheduler; the barrier below orders the checkpoint after it.
	seq, gen, err := rs.applier.Position()
	if err != nil {
		return "", fmt.Errorf("read position: %w", err)
	}
	var rep crafty.KVCheckpointReport
	if err := s.syncWith(func() error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var err error
		rep, err = s.store.Checkpoint(s.eng)
		return err
	}); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	newGen := gen + 1
	if g := rs.gen.Load(); newGen <= g {
		newGen = g + 1
	}
	rs.log.SkipTo(seq)
	rs.gen.Store(newGen)
	rs.isReplica.Store(false) // last: writes (and taps) start here
	log.Printf("craftykv: promoted to primary: gen=%d seq=%d checkpoint_seq=%d", newGen, seq, rep.Seq)
	return fmt.Sprintf("OK gen=%d seq=%d", newGen, seq), nil
}

// replInfo renders the REPLINFO reply.
func (s *Server) replInfo() string {
	rs := s.repl
	if rs == nil {
		return "REPLINFO role=primary repl=off"
	}
	if rs.isReplica.Load() {
		r := rs.getReplica()
		if r == nil {
			return fmt.Sprintf("REPLINFO role=replica gen=%d connected=false", rs.gen.Load())
		}
		return fmt.Sprintf("REPLINFO role=replica gen=%d applied=%d connected=%t reconnects=%d snapshots=%d",
			r.Gen(), r.AppliedSeq(), r.Connected(), r.Reconnects(), r.Snapshots())
	}
	p := rs.getPrimary()
	if p == nil {
		return fmt.Sprintf("REPLINFO role=primary gen=%d seq=%d replicas=0", rs.gen.Load(), rs.log.LastSeq())
	}
	return fmt.Sprintf("REPLINFO role=primary gen=%d seq=%d acked=%d lag=%d replicas=%d snapshots=%d sync=%t",
		rs.gen.Load(), rs.log.LastSeq(), p.AckedSeq(), p.Lag(), p.Replicas(), p.Snapshots(), rs.syncMode)
}

// kvApplier implements repl.Applier over the server's scheduler: streamed
// groups become requests, so they share group commits, per-shard ordering,
// and the crash discipline with everything else.
type kvApplier struct {
	s *Server
	// curGen is the generation the recorded position belongs to, refreshed
	// by Position and ApplySnapshot.
	curGen atomic.Uint64
	// sessEpoch is the server's crash epoch as of this session's last
	// consistent point (Position read, snapshot applied). Every apply and
	// fence first checks the live epoch against it: a CRASH between apply
	// windows rolls unfenced groups back while the session's in-memory
	// position marches on, so continuing the stream — or worse, durably
	// acking a fence over the rolled-back state — would open a hole. The
	// mismatch errors the session; the reconnect re-reads the durable
	// position (which rollback can never strand ahead of the data) and
	// resumes from there.
	sessEpoch atomic.Uint64
}

// runOps submits one request carrying the ops build adds and waits for it;
// any per-op error fails the whole call. read, if non-nil, extracts results
// before the request returns to the pool.
func (a *kvApplier) runOps(build, read func(req *request)) error {
	req := newRequest(wire.TMPut) // the type is irrelevant: nothing renders this request
	build(req)
	if len(req.ops) == 0 {
		requestPool.Put(req)
		return nil
	}
	var done completion
	done.init()
	a.s.submit(req, &done)
	done.wait()
	var err error
	for i := range req.res {
		if e := req.res[i].err; e != nil {
			err = fmt.Errorf("op %d: %w", i, e)
			break
		}
	}
	if err == nil && read != nil {
		read(req)
	}
	requestPool.Put(req)
	return err
}

// writePos records "<gen> <seq>" under the reserved key. Submitted only
// after the data it covers completed, so its commit timestamp is the
// window's highest and suffix rollback cannot strand it ahead of the data.
func (a *kvApplier) writePos(seq, gen uint64) error {
	return a.runOps(func(req *request) {
		req.addOp(crafty.KVPut, replPosKey, fmt.Appendf(nil, "%d %d", gen, seq))
	}, nil)
}

// poisonPos durably deletes the position record after a crash landed inside
// an apply window (the recovered data may have holes the position would
// paper over). Loops until delete + fence complete crash-free.
func (a *kvApplier) poisonPos() {
	for {
		e0 := a.s.crashEpoch.Load()
		err := a.runOps(func(req *request) {
			req.addOp(crafty.KVDelete, replPosKey, nil)
		}, nil)
		if err == nil {
			err = a.s.sync()
		}
		if err == nil && a.s.crashEpoch.Load() == e0 {
			return
		}
	}
}

// ApplyGroups applies whole groups in order, then records the position. A
// crash epoch change across the window means some of these commits may have
// rolled back while later ones (drained post-recovery) stuck — the position
// can no longer be trusted relative to the data, so it is poisoned and the
// session errors out into a snapshot resync.
func (a *kvApplier) ApplyGroups(gs []repl.Group) error {
	if len(gs) == 0 {
		return nil
	}
	e0 := a.s.crashEpoch.Load()
	if e0 != a.sessEpoch.Load() {
		// A crash landed since this session's last consistent point: unfenced
		// applied groups may have rolled back behind the in-memory position.
		// The durable position is intact (it can only trail the data), so no
		// poisoning — just force a re-handshake from it.
		return fmt.Errorf("crash recovery since last apply; rewinding to the durable position")
	}
	err := a.runOps(func(req *request) {
		for _, g := range gs {
			for _, op := range g.Ops {
				req.addOp(op.Kind, op.Key, op.Value)
			}
		}
	}, nil)
	if err == nil {
		err = a.writePos(gs[len(gs)-1].Seq, a.curGen.Load())
	}
	if a.s.crashEpoch.Load() != e0 {
		a.poisonPos()
		return fmt.Errorf("crash recovery interleaved with replicated apply; position reset")
	}
	return err
}

// ApplySnapshot replaces the store contents with the snapshot: the local
// state is dumped at a quiesced point, keys absent from the snapshot are
// deleted, differing or new pairs are written, and the position is recorded
// and fenced. The only writer on a replica is this applier, so nothing
// mutates between the dump and the diff application (a crash in between is
// caught by the epoch check).
func (a *kvApplier) ApplySnapshot(puts []crafty.KVOp, seq, gen uint64) error {
	e0 := a.s.crashEpoch.Load()
	want := make(map[string]string, len(puts))
	for _, e := range puts {
		want[string(e.Key)] = string(e.Value)
	}
	local := map[string]string{}
	if err := a.s.syncWith(func() error {
		a.s.mu.RLock()
		defer a.s.mu.RUnlock()
		return a.s.store.Snapshot(a.s.heap, func(e crafty.KVSnapshotEntry) error {
			if !replReserved(e.Key) {
				local[string(e.Key)] = string(e.Value)
			}
			return nil
		})
	}); err != nil {
		return fmt.Errorf("dump local state: %w", err)
	}
	err := a.runOps(func(req *request) {
		for k := range local {
			if _, ok := want[k]; !ok {
				req.addOp(crafty.KVDelete, []byte(k), nil)
			}
		}
		for k, v := range want {
			if lv, ok := local[k]; !ok || lv != v {
				req.addOp(crafty.KVPut, []byte(k), []byte(v))
			}
		}
	}, nil)
	if err == nil {
		err = a.writePos(seq, gen)
	}
	if err == nil {
		// Make the whole transfer rollback-proof: a crash right after must
		// resume from seq, not redo the bulk load.
		err = a.s.sync()
	}
	if a.s.crashEpoch.Load() != e0 {
		a.poisonPos()
		return fmt.Errorf("crash recovery interleaved with snapshot apply; position reset")
	}
	if err == nil {
		a.curGen.Store(gen)
		a.sessEpoch.Store(e0)
	}
	return err
}

// Fence is the replica's durability barrier (FENCE frame handler). The epoch
// checks keep a CRASH racing the barrier from producing a false durable ACK:
// a crash before the sync may have rolled applied groups back (the sync would
// then durably seal the rolled-back state), and a crash during it voids the
// quiesce — in either case the session errors instead of acking, and resumes
// from the durable position.
func (a *kvApplier) Fence() error {
	e0 := a.s.crashEpoch.Load()
	if e0 != a.sessEpoch.Load() {
		return fmt.Errorf("crash recovery since last apply; refusing durable ack")
	}
	if err := a.s.sync(); err != nil {
		return err
	}
	if a.s.crashEpoch.Load() != e0 {
		return fmt.Errorf("crash recovery interleaved with fence; refusing durable ack")
	}
	return nil
}

// Position reads the recorded stream position; absent means "never synced"
// (a fresh replica, or a poisoned position after a crash split a window).
// The read retries until a crash-free window brackets it: a position read
// just before a crash could exceed the rolled-back data, so only an
// epoch-stable read is allowed to seed a session.
func (a *kvApplier) Position() (seq, gen uint64, err error) {
	for {
		e0 := a.s.crashEpoch.Load()
		var found bool
		var val string
		rerr := a.runOps(func(req *request) {
			req.addOp(crafty.KVGet, replPosKey, nil)
		}, func(req *request) {
			found = req.res[0].found
			val = string(req.res[0].val)
		})
		if rerr != nil {
			return 0, 0, rerr
		}
		if a.s.crashEpoch.Load() != e0 {
			continue
		}
		a.sessEpoch.Store(e0)
		if !found {
			return 0, 0, nil
		}
		if _, err := fmt.Sscanf(val, "%d %d", &gen, &seq); err != nil {
			return 0, 0, fmt.Errorf("corrupt position record %q", val)
		}
		a.curGen.Store(gen)
		return seq, gen, nil
	}
}

// errReadOnlyReplica is what client mutations are answered with on a replica.
var errReadOnlyReplica = errors.New("read-only replica (PROMOTE to accept writes)")

// writesRefused reports whether client mutations should be refused
// (replica role).
func (s *Server) writesRefused() bool {
	return s.repl != nil && s.repl.isReplica.Load()
}
