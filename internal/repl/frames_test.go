package repl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

// TestHostileHelloIsRefusedBounded: whatever a peer of the -repl-listen port
// sends in place of a hello — a newline-free flood (which the line framing
// this port used to speak buffered whole, two bytes allocated per byte sent),
// a frame over the bound, a frame it declares and never sends — the primary
// answers with one typed ERR frame and closes, having allocated no more than
// its two connection buffers, with the handshake counted and no session added.
func TestHostileHelloIsRefusedBounded(t *testing.T) {
	chunk := bytes.Repeat([]byte("A"), connBuf)
	flood := func(c net.Conn, n int) {
		for ; n > 0; n -= len(chunk) {
			if _, err := c.Write(chunk); err != nil {
				return // refused and closed: the point
			}
		}
	}
	for _, tc := range []struct {
		name string
		send func(c net.Conn)
		want string
	}{
		{"newline_free_flood", func(c net.Conn) { flood(c, 8<<20) }, "bad handshake magic"},
		{"frame_over_the_bound", func(c net.Conn) {
			c.Write(wire.AppendUint(wire.AppendHandshake(nil, wire.Version), wire.ReplMaxFrame+1))
			flood(c, wire.ReplMaxFrame+1)
		}, "frame too large"},
		{"frame_declared_never_sent", func(c net.Conn) {
			c.Write(wire.AppendUint(wire.AppendHandshake(nil, wire.Version), wire.ReplMaxFrame))
			c.Write([]byte{byte(wire.TReplHello)})
			c.Close() // a pipe has no half-close: this peer hangs up unanswered
		}, ""},
		{"not_a_hello_from_a_newer_peer", func(c net.Conn) {
			c.Write(wire.AppendHandshake(nil, wire.Version+8)) // answered at this end's version
			c.Write([]byte{3, byte(wire.TReplAck), 7, 1})
		}, "first frame is REPL ACK"},
		{"version_zero", func(c net.Conn) { c.Write([]byte{wire.Magic0, wire.Magic1, wire.Magic2, 0, '\n'}) }, "bad handshake version 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newFakePrimaryState(8)
			p := NewPrimary(PrimaryConfig{Log: s.log, Snapshot: s.snapshotFunc(), Gen: func() uint64 { return 1 }, Logf: t.Logf})
			client, server := net.Pipe()
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				tc.send(client)
			}()
			reply := make([]byte, 0, 4096)
			go func() {
				defer wg.Done()
				var buf [512]byte
				for {
					n, err := client.Read(buf[:])
					reply = append(reply, buf[:n]...)
					if err != nil {
						return
					}
				}
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p.HandleConn(server)
			runtime.ReadMemStats(&after)
			client.Close()
			wg.Wait()

			if got := after.TotalAlloc - before.TotalAlloc; got > 4*connBuf {
				t.Errorf("refusing the peer allocated %d bytes, want at most the connection's buffers (%d)", got, 4*connBuf)
			}
			if p.handshakes.Load() != 1 || p.Replicas() != 0 {
				t.Errorf("handshakes = %d, sessions = %d; want the attempt counted and no session", p.handshakes.Load(), p.Replicas())
			}
			if tc.want == "" {
				return
			}
			if len(reply) < wire.HandshakeLen {
				t.Fatalf("reply is %d bytes", len(reply))
			}
			if v, err := wire.ParseHandshake(reply[:wire.HandshakeLen]); err != nil || v != wire.Version {
				t.Fatalf("the refusal opens with handshake version %d (%v), want %d", v, err, wire.Version)
			}
			typ, payload, err := wire.NewReader(bufio.NewReader(bytes.NewReader(reply[wire.HandshakeLen:])), 0).Next()
			if err != nil || typ != wire.TErr || !bytes.Contains(payload, []byte(tc.want)) {
				t.Fatalf("refusal = %v %q (%v), want an ERR frame naming %q", typ, payload, err, tc.want)
			}
		})
	}
}

// teeConn records everything read from the connection.
type teeConn struct {
	net.Conn
	mu   sync.Mutex
	read bytes.Buffer
}

func (c *teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// TestSnapshotSpansChunks: a store several chunk frames wide reaches the
// replica through Primary.HandleConn → Replica.session → ApplySnapshot with
// every entry, its sequence and its generation intact, in frames none of
// which is much wider than the chunk size however large the store.
func TestSnapshotSpansChunks(t *testing.T) {
	s := newFakePrimaryState(4)
	const entries = 5000
	for i := 0; i < entries; i++ {
		s.put(fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%05d-%s", i, bytes.Repeat([]byte{'a' + byte(i%26)}, 40+i%50)))
	}
	s.mu.Lock()
	s.gen = 7
	s.mu.Unlock()
	_, addr := startPrimary(t, s)
	a := newMemApplier()
	var tee *teeConn
	r := startReplica(t, addr, a, func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		tee = &teeConn{Conn: c}
		return tee, err
	})
	waitUntil(t, "snapshot applied", func() bool { return r.AppliedSeq() == entries })
	if !mapsEqual(a.snapshot(), s.snapshot()) || len(a.snapshot()) != entries {
		t.Fatalf("replica holds %d entries, primary %d, or they differ", len(a.snapshot()), len(s.snapshot()))
	}
	if a.position() != entries || a.generation() != 7 || r.Snapshots() != 1 {
		t.Fatalf("pos %d gen %d snapshots %d, want %d 7 1", a.position(), a.generation(), r.Snapshots(), entries)
	}
	r.Stop()
	tee.mu.Lock()
	defer tee.mu.Unlock()
	stream := tee.read.Bytes()[wire.HandshakeLen:]
	d := wire.NewReader(bufio.NewReader(bytes.NewReader(stream)), wire.ReplMaxFrame)
	chunks, ends, widest := 0, 0, 0
	for {
		typ, payload, err := d.Next()
		if err != nil {
			break
		}
		switch typ {
		case wire.TReplSnapChunk:
			chunks++
			widest = max(widest, len(payload))
		case wire.TReplSnapEnd:
			ends++
		}
	}
	if chunks < 3 || ends != 1 || widest > 2*connBuf {
		t.Fatalf("snapshot went out as %d chunk frames (widest %d bytes) and %d end frames; want ≥ 3 chunks under %d bytes and 1 end", chunks, widest, ends, 2*connBuf)
	}
}

// TestSnapshotCutShortAppliesNothing: a snapshot transfer that ends between
// chunks, inside one, or goes on without its SNAPEND is an error of the
// session and never reaches ApplySnapshot.
func TestSnapshotCutShortAppliesNothing(t *testing.T) {
	var full bytes.Buffer
	w := bufio.NewWriter(&full)
	e := wire.NewEncoder(w)
	var ends []int // stream offset after each frame
	frame := func(typ wire.Type, a, b uint64, ops []kv.Op) {
		if err := e.Repl(typ, a, b, ops); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		ends = append(ends, full.Len())
	}
	for c := 0; c < 3; c++ {
		var puts []kv.Op
		for i := 0; i < 100; i++ {
			puts = append(puts, kv.Op{Kind: kv.OpPut, Key: []byte(fmt.Sprintf("k%d-%d", c, i)), Value: []byte("v")})
		}
		frame(wire.TReplSnapChunk, 0, 0, puts)
	}
	chunksOnly := full.Len()
	frame(wire.TReplGroup, 301, 0, []kv.Op{{Kind: kv.OpPut, Key: []byte("tail"), Value: []byte("v")}})
	for _, tc := range []struct {
		name string
		cut  int
	}{
		{"between_chunks", ends[1]},
		{"inside_a_chunk", ends[1] + 17},
		{"end_frame_missing_at_eof", chunksOnly},
		{"end_frame_missing_before_a_group", full.Len()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			go func() { // the primary's side: take the hello, send the cut stream, hang up
				defer server.Close()
				l := newLink(server, connBuf)
				if _, err := l.readHandshake(); err != nil {
					return
				}
				if _, _, err := l.r.Next(); err != nil {
					return
				}
				server.Write(wire.AppendHandshake(nil, wire.Version))
				server.Write(full.Bytes()[:tc.cut])
			}()
			a := newMemApplier()
			r := NewReplica(ReplicaConfig{Addr: "pipe", Dial: func(string) (net.Conn, error) { return client, nil }, Applier: a})
			err := r.session()
			if err == nil {
				t.Fatal("the session outlived a snapshot with no SNAPEND")
			}
			var pe *wire.ProtocolError
			if tc.cut == full.Len() {
				if errors.As(err, &pe) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("a GROUP inside a snapshot failed as %v, want the session's own refusal", err)
				}
			} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut at %d: %v, want an EOF", tc.cut, err)
			}
			if len(a.snapshot()) != 0 || a.position() != 0 || r.Snapshots() != 0 || r.AppliedSeq() != 0 {
				t.Fatalf("a cut-short snapshot was applied: %d entries, pos %d, %d snapshots", len(a.snapshot()), a.position(), r.Snapshots())
			}
		})
	}
}
