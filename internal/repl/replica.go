package repl

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crafty/internal/kv"
	"crafty/internal/kvclient"
	"crafty/internal/wire"
)

// Applier is the replica host's store interface. craftykv implements it on
// top of its scheduler, so replicated groups ride the same per-shard
// ordering and group-commit machinery as client writes.
type Applier interface {
	// ApplyGroups applies whole groups in order and transactionally records
	// the last group's sequence as the stream position. It must be
	// idempotent: re-applying an already-applied suffix (after a lost ack or
	// a crash that rolled the position forward of the data — impossible — or
	// behind it — routine) converges to the same state.
	ApplyGroups(gs []Group) error
	// ApplySnapshot replaces the store contents with puts and records
	// position seq under generation gen.
	ApplySnapshot(puts []kv.Op, seq, gen uint64) error
	// Fence makes everything applied so far durable (the host's SYNC
	// barrier); after it returns, the recorded position survives any crash.
	Fence() error
	// Position returns the currently recorded stream position and
	// generation (0, 0 before the first snapshot or group).
	Position() (seq, gen uint64, err error)
}

// ReplicaConfig wires a Replica to its primary and host.
type ReplicaConfig struct {
	// Addr is the primary's replication listener address.
	Addr string
	// Dial opens a connection; nil means net.DialTimeout. Drills inject
	// netfault wrappers here.
	Dial func(addr string) (net.Conn, error)
	// Applier is the host store.
	Applier Applier
	// Backoff tunes the reconnect cadence (defaults 20ms..1s, seed 1).
	BackoffBase, BackoffMax time.Duration
	BackoffSeed             int64
	// Logf, if non-nil, receives session diagnostics.
	Logf func(format string, args ...any)
}

// Replica maintains one connection to the primary, re-handshaking from the
// applier's recorded position after every failure.
type Replica struct {
	cfg ReplicaConfig

	mu      sync.Mutex
	conn    net.Conn
	stopped bool
	stop    chan struct{}

	applied    atomic.Uint64
	gen        atomic.Uint64
	connected  atomic.Bool
	reconnects atomic.Uint64
	snapshots  atomic.Uint64
}

// NewReplica builds a replica endpoint; call Run (usually `go r.Run()`).
func NewReplica(cfg ReplicaConfig) *Replica {
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 20 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.BackoffSeed == 0 {
		cfg.BackoffSeed = 1
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	return &Replica{cfg: cfg, stop: make(chan struct{})}
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// AppliedSeq is the last sequence applied this session (volatile view).
func (r *Replica) AppliedSeq() uint64 { return r.applied.Load() }

// Gen is the generation currently streamed under.
func (r *Replica) Gen() uint64 { return r.gen.Load() }

// Connected reports whether a session is live.
func (r *Replica) Connected() bool { return r.connected.Load() }

// Reconnects counts dial attempts after the first.
func (r *Replica) Reconnects() uint64 { return r.reconnects.Load() }

// Snapshots counts snapshot resyncs received.
func (r *Replica) Snapshots() uint64 { return r.snapshots.Load() }

// Stop ends the reconnect loop and closes any live connection.
func (r *Replica) Stop() {
	r.mu.Lock()
	if !r.stopped {
		r.stopped = true
		close(r.stop)
	}
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
}

func (r *Replica) setConn(c net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		if c != nil {
			c.Close()
		}
		return false
	}
	r.conn = c
	return true
}

// Run connects, replicates, and reconnects with backoff until Stop. It
// blocks; run it on its own goroutine.
func (r *Replica) Run() {
	bo := kvclient.NewBackoff(r.cfg.BackoffBase, r.cfg.BackoffMax, r.cfg.BackoffSeed)
	first := true
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if !first {
			r.reconnects.Add(1)
			select {
			case <-r.stop:
				return
			case <-time.After(bo.Next()):
			}
		}
		first = false
		err := r.session()
		r.connected.Store(false)
		if err != nil {
			r.logf("repl: replica session: %v", err)
		} else {
			bo.Reset()
		}
	}
}

// session runs one connection: handshake from the recorded position, then
// apply frames until something breaks.
func (r *Replica) session() error {
	pos, gen, err := r.cfg.Applier.Position()
	if err != nil {
		return fmt.Errorf("read position: %w", err)
	}
	conn, err := r.cfg.Dial(r.cfg.Addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", r.cfg.Addr, err)
	}
	if !r.setConn(conn) {
		return nil
	}
	defer func() {
		conn.Close()
		r.setConn(nil)
	}()

	l := newLink(conn, wire.ReplMaxFrame)
	l.enc.Handshake(wire.Version)
	if err := l.send(wire.TReplHello, pos, gen); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	r.applied.Store(pos)
	r.gen.Store(gen)

	// The primary's answer, behind its handshake: STREAM to tail the log from
	// pos+1, or the whole store as SNAPCHUNK frames closed by the SNAPEND
	// that names the point they stand for — until it arrives nothing is applied.
	v, err := l.readHandshake()
	if err == nil && v > wire.Version {
		err = fmt.Errorf("primary names protocol version %d, newer than %d", v, wire.Version)
	}
	var t wire.Type
	var sgen, seq uint64
	for err == nil {
		if t, sgen, seq, err = l.next(); t != wire.TReplSnapChunk {
			break
		}
	}
	switch {
	case err != nil:
		return fmt.Errorf("handshake reply: %w", err)
	case t == wire.TReplStream && len(l.ops) == 0:
		if seq != pos+1 {
			return fmt.Errorf("stream starts at %d, position is %d", seq, pos)
		}
	case t == wire.TReplSnapEnd:
		r.snapshots.Add(1)
		if err := r.cfg.Applier.ApplySnapshot(l.ops, seq, sgen); err != nil {
			return fmt.Errorf("apply snapshot: %w", err)
		}
		l.buf, l.ops = nil, nil
		r.applied.Store(seq)
		if err := l.send(wire.TReplAck, seq, 0); err != nil {
			return fmt.Errorf("ack snapshot: %w", err)
		}
	default:
		return fmt.Errorf("unexpected first frame %v", t)
	}
	r.gen.Store(sgen)
	r.connected.Store(true)

	// Apply loop. Consecutive buffered GROUP frames are batched into one
	// ApplyGroups call (one scheduler submission) before acking; FENCE
	// forces the pending batch through, then a durable barrier, then a
	// durable ACK. The batch's groups are windows of the link's ops.
	var batch []Group
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := r.cfg.Applier.ApplyGroups(batch); err != nil {
			return fmt.Errorf("apply groups: %w", err)
		}
		last := batch[len(batch)-1].Seq
		r.applied.Store(last)
		batch, l.buf, l.ops = batch[:0], l.buf[:0], l.ops[:0]
		return l.send(wire.TReplAck, last, 0)
	}
	for {
		// Drain buffered frames into the batch before blocking on the wire.
		if len(batch) > 0 && !l.r.Buffered() {
			if err := flush(); err != nil {
				return err
			}
		}
		first := len(l.ops)
		t, seq, _, err := l.next()
		if err != nil {
			return fmt.Errorf("read frame: %w", err)
		}
		switch t {
		case wire.TReplGroup:
			want := r.applied.Load() + uint64(len(batch)) + 1
			if seq != want {
				return fmt.Errorf("sequence gap: got group %d, want %d", seq, want)
			}
			batch = append(batch, Group{Seq: seq, Ops: l.ops[first:]})
			if len(batch) >= 256 {
				if err := flush(); err != nil {
					return err
				}
			}
		case wire.TReplFence:
			if err := flush(); err != nil {
				return err
			}
			if ap := r.applied.Load(); seq > ap {
				return fmt.Errorf("fence %d ahead of applied %d", seq, ap)
			}
			if err := r.cfg.Applier.Fence(); err != nil {
				return fmt.Errorf("fence: %w", err)
			}
			if err := l.send(wire.TReplAck, seq, 1); err != nil {
				return fmt.Errorf("ack fence: %w", err)
			}
		default:
			return fmt.Errorf("unexpected frame %v mid-stream", t)
		}
	}
}
