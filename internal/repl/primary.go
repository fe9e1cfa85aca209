package repl

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

// SnapshotFunc captures the store's full contents at a quiesced point,
// together with the stream sequence and generation that state corresponds
// to. craftykv implements it with its SYNC barrier: checkpoint + kv.Snapshot
// inside the fully-quiesced window, reading Log.LastSeq there.
type SnapshotFunc func() (puts []kv.Op, seq, gen uint64, err error)

// PrimaryConfig wires a Primary to its host server.
type PrimaryConfig struct {
	Log *Log
	// Snapshot produces catch-up state for replicas the log can't serve.
	Snapshot SnapshotFunc
	// Gen returns the current generation; bumped by the host on every crash
	// recovery and promotion so replicas holding rolled-back state resync.
	Gen func() uint64
	// Accept, if non-nil, can refuse handshakes (e.g. "not primary" while
	// the host is still a replica).
	Accept func() error
	// WriteTimeout bounds one flush to a replica (default 10s); a stalled
	// replica is disconnected, not allowed to pin the streamer.
	WriteTimeout time.Duration
	// Logf, if non-nil, receives session diagnostics.
	Logf func(format string, args ...any)
}

// Primary serves the replication protocol: one session per replica
// connection, each with a streamer goroutine walking the shared Log and a
// reader goroutine consuming ACKs.
type Primary struct {
	cfg PrimaryConfig

	mu       sync.Mutex
	sessions map[*session]struct{}
	notify   chan struct{} // pulsed on durable acks / session changes
	closed   bool

	snapshots  atomic.Uint64
	fences     atomic.Uint64
	handshakes atomic.Uint64
}

type session struct {
	p *Primary
	*link

	closed    atomic.Bool
	acked     atomic.Uint64
	durable   atomic.Uint64
	fenceWant atomic.Uint64 // highest fence requested by WaitDurable
}

// NewPrimary builds a primary endpoint.
func NewPrimary(cfg PrimaryConfig) *Primary {
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	return &Primary{cfg: cfg, sessions: make(map[*session]struct{}), notify: make(chan struct{}, 1)}
}

func (p *Primary) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// Serve accepts replica connections until the listener closes.
func (p *Primary) Serve(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go p.HandleConn(conn)
	}
}

// Snapshots counts snapshot transfers served.
func (p *Primary) Snapshots() uint64 { return p.snapshots.Load() }

// Fences counts durable-ack waits performed.
func (p *Primary) Fences() uint64 { return p.fences.Load() }

// Replicas reports currently attached replica sessions.
func (p *Primary) Replicas() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

// AckedSeq returns the highest sequence any replica has acknowledged.
func (p *Primary) AckedSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best uint64
	for s := range p.sessions {
		if a := s.acked.Load(); a > best {
			best = a
		}
	}
	return best
}

// Lag is the replication gauge: groups appended but not yet acknowledged by
// the most caught-up replica. With no replica attached, everything counts.
func (p *Primary) Lag() uint64 {
	last := p.cfg.Log.LastSeq()
	if a := p.AckedSeq(); a < last {
		return last - a
	}
	return 0
}

// Sever disconnects every replica session (crash recovery, host shutdown);
// replicas re-handshake and, post-crash, resync from a snapshot.
func (p *Primary) Sever() {
	p.mu.Lock()
	for s := range p.sessions {
		s.close()
	}
	p.mu.Unlock()
	p.cfg.Log.Broadcast()
}

func (p *Primary) pulse() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

func (p *Primary) addSession(s *session) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.sessions[s] = struct{}{}
	return true
}

func (p *Primary) dropSession(s *session) {
	p.mu.Lock()
	delete(p.sessions, s)
	p.mu.Unlock()
	p.pulse()
}

// Close severs all sessions and refuses future ones (the listener itself is
// owned by the caller).
func (p *Primary) Close() {
	p.mu.Lock()
	p.closed = true
	for s := range p.sessions {
		s.close()
	}
	p.mu.Unlock()
	p.cfg.Log.Broadcast()
	p.pulse()
}

func (s *session) close() {
	if s.closed.CompareAndSwap(false, true) {
		s.conn.Close()
	}
}

// HandleConn runs one replica session to completion.
func (p *Primary) HandleConn(conn net.Conn) {
	// This end reads a few integers a frame (HELLO, ACK) from a peer it knows
	// nothing about: its frame limit is its read buffer, so nothing allocates.
	s := &session{p: p, link: newLink(conn, connBuf)}
	defer s.close()
	defer s.enc.Flush() // a refusal below is one ERR frame, then close
	p.handshakes.Add(1)

	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	pos, gen, err := s.readHello()
	conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
	if err != nil {
		p.logf("repl: handshake failed: %v", err)
		s.enc.Err(fmt.Sprintf("handshake: %v", err))
		return
	}
	conn.SetReadDeadline(time.Time{})
	if p.cfg.Accept != nil {
		if err := p.cfg.Accept(); err != nil {
			s.enc.Err(err.Error())
			return
		}
	}
	if !p.addSession(s) {
		s.enc.Err("primary shut down")
		return
	}
	defer p.dropSession(s)
	p.pulse()

	// Decide stream-vs-snapshot: same generation and a log window still
	// covering pos+1 lets the replica tail directly; anything else gets a
	// quiesced snapshot and tails from its recorded sequence.
	curGen := p.cfg.Gen()
	if gen == curGen && pos <= p.cfg.Log.LastSeq() && p.cfg.Log.Covers(pos) {
		err = s.enc.Repl(wire.TReplStream, curGen, pos+1, nil)
	} else {
		var puts []kv.Op
		var snapGen uint64
		if puts, pos, snapGen, err = p.cfg.Snapshot(); err != nil {
			p.logf("repl: snapshot for replica failed: %v", err)
			s.enc.Err(fmt.Sprintf("snapshot: %v", err))
			return
		}
		p.snapshots.Add(1)
		// Chunks of about connBuf key and value bytes: the store's size sets
		// how many frames there are, not how wide. The write deadline
		// restarts with each.
		for len(puts) > 0 && err == nil {
			n, size := 0, 0
			for n < len(puts) && size < connBuf {
				size += len(puts[n].Key) + len(puts[n].Value)
				n++
			}
			conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
			err = s.enc.Repl(wire.TReplSnapChunk, 0, 0, puts[:n])
			puts = puts[n:]
		}
		if err == nil {
			err = s.enc.Repl(wire.TReplSnapEnd, snapGen, pos, nil)
		}
	}
	if err != nil || s.enc.Flush() != nil {
		return
	}
	s.acked.Store(pos)

	go s.readAcks()
	s.stream(pos)
}

// readHello exchanges handshakes and reads the replica's HELLO. Its errors
// are typed: the stream's own (EOF, deadline) or internal/wire's.
func (s *session) readHello() (pos, gen uint64, err error) {
	version, err := s.readHandshake()
	if err != nil || version > wire.Version {
		version = wire.Version
	}
	s.enc.Handshake(version) // even a refusal is a frame, so it follows a handshake
	if err != nil {
		return 0, 0, err
	}
	t, pos, gen, err := s.next()
	if err == nil && t != wire.TReplHello {
		err = &wire.ProtocolError{Msg: fmt.Sprintf("first frame is %v, want %v", t, wire.TReplHello)}
	}
	return pos, gen, err
}

// readAcks consumes replica ACKs until the connection dies.
func (s *session) readAcks() {
	defer s.close()
	defer s.p.cfg.Log.Broadcast() // unblock the streamer's WaitFrom
	for {
		t, seq, durable, err := s.next()
		if err != nil || t != wire.TReplAck {
			return
		}
		if seq > s.acked.Load() {
			s.acked.Store(seq)
		}
		if durable == 1 && seq > s.durable.Load() {
			s.durable.Store(seq)
			s.p.pulse()
		}
	}
}

// stream ships groups from pos+1 onward, interleaving fence requests, until
// the session dies or the log stops covering the position.
func (s *session) stream(pos uint64) {
	var buf []Group
	var lastFence uint64
	// Wake from WaitFrom only for a fence that is actually sendable (its
	// group already streamed); a fence ahead of the stream position is
	// satisfied by streaming up to it first.
	stop := func() bool {
		if s.closed.Load() {
			return true
		}
		want := s.fenceWant.Load()
		return want > lastFence && want <= pos
	}
	for {
		gs, ok := s.p.cfg.Log.WaitFrom(pos+1, stop, 256, buf)
		if !ok {
			// Trimmed past us or cleared after a crash: force the replica
			// through a fresh handshake (and thus the snapshot path).
			return
		}
		if s.closed.Load() {
			return
		}
		buf = gs
		s.conn.SetWriteDeadline(time.Now().Add(s.p.cfg.WriteTimeout))
		for _, g := range gs {
			if err := s.enc.Repl(wire.TReplGroup, g.Seq, 0, g.Ops); err != nil {
				s.p.logf("repl: group %d: %v", g.Seq, err)
				return
			}
			pos = g.Seq
		}
		if want := s.fenceWant.Load(); want > lastFence && want <= pos {
			if err := s.enc.Repl(wire.TReplFence, want, 0, nil); err != nil {
				return
			}
			lastFence = want
		}
		if err := s.enc.Flush(); err != nil {
			return
		}
	}
}

// WaitDurable blocks until some replica durably acknowledges seq (the
// -repl-sync barrier hook): each session is asked to fence, and the first
// durable ACK ≥ seq wins. Errors if no replica is attached or the timeout
// expires — the host surfaces that as a failed SYNC, never a silent one.
func (p *Primary) WaitDurable(seq uint64, timeout time.Duration) error {
	p.fences.Add(1)
	deadline := time.Now().Add(timeout)
	p.mu.Lock()
	if len(p.sessions) == 0 {
		p.mu.Unlock()
		return fmt.Errorf("repl: no replica connected")
	}
	for s := range p.sessions {
		for {
			cur := s.fenceWant.Load()
			if cur >= seq || s.fenceWant.CompareAndSwap(cur, seq) {
				break
			}
		}
	}
	p.mu.Unlock()
	p.cfg.Log.Broadcast() // wake streamers to send the fences

	for {
		p.mu.Lock()
		n := len(p.sessions)
		for s := range p.sessions {
			if s.durable.Load() >= seq {
				p.mu.Unlock()
				return nil
			}
		}
		p.mu.Unlock()
		if n == 0 {
			return fmt.Errorf("repl: replica disconnected during durable wait")
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("repl: durable ack for seq %d timed out after %v", seq, timeout)
		}
		if wait > 50*time.Millisecond {
			wait = 50 * time.Millisecond
		}
		select {
		case <-p.notify:
		case <-time.After(wait):
		}
	}
}
