package repl

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bufio"

	"crafty/internal/kvclient"
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
	// ApplySnapshot replaces the store contents with entries and records
	// position seq under generation gen.
	ApplySnapshot(entries []Entry, seq, gen uint64) error
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

	w := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)
	if err := WriteHello(w, pos, gen); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	r.applied.Store(pos)
	r.gen.Store(gen)

	// First frame decides the mode.
	f, err := ReadFrame(br)
	if err != nil {
		return fmt.Errorf("handshake reply: %w", err)
	}
	switch f.Kind {
	case FrameErr:
		return fmt.Errorf("primary refused: %s", f.Msg)
	case FrameStream:
		if f.Seq != pos+1 {
			return fmt.Errorf("stream starts at %d, position is %d", f.Seq, pos)
		}
		r.gen.Store(f.Gen)
	case FrameSnap:
		r.snapshots.Add(1)
		if err := r.cfg.Applier.ApplySnapshot(f.Entries, f.Seq, f.Gen); err != nil {
			return fmt.Errorf("apply snapshot: %w", err)
		}
		r.applied.Store(f.Seq)
		r.gen.Store(f.Gen)
		r.connected.Store(true)
		if err := WriteAck(w, f.Seq, false); err != nil {
			return fmt.Errorf("ack snapshot: %w", err)
		}
	default:
		return fmt.Errorf("unexpected first frame kind %d", f.Kind)
	}
	r.connected.Store(true)

	// Apply loop. Consecutive buffered GROUP frames are batched into one
	// ApplyGroups call (one scheduler submission) before acking; FENCE
	// forces the pending batch through, then a durable barrier, then a
	// durable ACK.
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
		batch = batch[:0]
		return WriteAck(w, last, false)
	}
	for {
		// Drain buffered frames into the batch before blocking on the wire.
		if len(batch) > 0 && br.Buffered() == 0 {
			if err := flush(); err != nil {
				return err
			}
		}
		f, err := ReadFrame(br)
		if err != nil {
			return fmt.Errorf("read frame: %w", err)
		}
		switch f.Kind {
		case FrameGroup:
			want := r.applied.Load() + uint64(len(batch)) + 1
			if f.Group.Seq != want {
				return fmt.Errorf("sequence gap: got group %d, want %d", f.Group.Seq, want)
			}
			batch = append(batch, f.Group)
			if len(batch) >= 256 {
				if err := flush(); err != nil {
					return err
				}
			}
		case FrameFence:
			if err := flush(); err != nil {
				return err
			}
			if ap := r.applied.Load(); f.Seq > ap {
				return fmt.Errorf("fence %d ahead of applied %d", f.Seq, ap)
			}
			if err := r.cfg.Applier.Fence(); err != nil {
				return fmt.Errorf("fence: %w", err)
			}
			if err := WriteAck(w, f.Seq, true); err != nil {
				return fmt.Errorf("ack fence: %w", err)
			}
		case FrameErr:
			return fmt.Errorf("primary error: %s", f.Msg)
		default:
			return fmt.Errorf("unexpected frame kind %d mid-stream", f.Kind)
		}
	}
}
