package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

// replyKind is a reply normalised across the two protocols.
type replyKind uint8

const (
	repOK replyKind = iota
	repNil
	repVal
	repUint
	repErr
	repText
)

// expectShape is what a request's reply must look like.
type expectShape uint8

const (
	expGet  expectShape = iota // VAL (checked against the model) or NIL
	expPut                     // OK
	expMPut                    // count of operations applied
	expDel                     // OK if the key was live, NIL otherwise
	expSync                    // OK
)

// expect is one reply the connection is waiting for, recorded when the
// request was encoded — the model's state at that moment is what the reply
// must show, because the server runs one key's operations in order.
type expect struct {
	idx   uint32
	ver   uint32
	shape expectShape
	exact bool  // GET by the key's owner: exactly ver, or NIL if !live
	live  bool  // the key holds a value when this request runs
	last  bool  // last reply of its request: the request's latency ends here
	write bool  // the request carries a PUT or DEL
	nops  uint8 // operations this reply accounts for
}

// conn is one closed-loop client connection and the goroutine-local state
// that drives it. After construction, step allocates nothing.
type conn struct {
	id  int
	mix *mix
	m   *model
	vs  *valueSpace

	nc  io.ReadWriteCloser
	bw  *bufio.Writer
	br  *bufio.Reader
	enc *wire.Encoder // binary only
	fr  *wire.Reader  // binary only

	ring []op
	pos  int

	exp      []expect
	lastSeen []uint32 // per preloaded key: newest version this connection has read
	kbuf     []byte   // scratch: one frame's keys
	vbuf     []byte   // scratch: one frame's values
	ops      []kv.Op  // scratch: one multi-op frame

	attempted, failed uint64
	failures          []string
	writesSinceSync   int

	// all makes every key count as owned: the admin connection works only
	// while nothing else is in flight, so it may read any model word.
	all       bool
	userBytes uint64 // key+value bytes this connection has PUT since the last reset

	epoch   time.Time
	rec     *recorder
	syncLat hist
	tr      *tracer
	burstID int64
}

const (
	maxFrameOps = 16
	maxFailures = 5
)

// dialConn connects and, for the binary protocol, completes the handshake.
func dialConn(addr string, id int, mx *mix, m *model, vs *valueSpace, epoch time.Time) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := newConn(nc, id, mx, m, vs, epoch)
	if !mx.text {
		if err := c.handshake(); err != nil {
			nc.Close()
			return nil, err
		}
	}
	return c, nil
}

// newConn wraps an established connection; the replay and the tests hand it
// an in-memory one.
func newConn(nc io.ReadWriteCloser, id int, mx *mix, m *model, vs *valueSpace, epoch time.Time) *conn {
	c := &conn{
		id: id, mix: mx, m: m, vs: vs, nc: nc, epoch: epoch,
		bw:       bufio.NewWriterSize(nc, 64<<10),
		br:       bufio.NewReaderSize(nc, 64<<10),
		exp:      make([]expect, 0, 64*maxFrameOps),
		lastSeen: make([]uint32, m.base),
		kbuf:     make([]byte, 0, maxFrameOps*keyLen),
		vbuf:     make([]byte, 0, maxFrameOps*maxVarLen),
		ops:      make([]kv.Op, 0, maxFrameOps),
		rec:      newRecorder(time.Hour, 1),
	}
	if !mx.text {
		c.enc = wire.NewEncoder(c.bw)
		c.fr = wire.NewReader(c.br, 0)
	}
	return c
}

func (c *conn) handshake() error {
	if err := c.enc.Handshake(wire.Version); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	var hs [wire.HandshakeLen]byte
	if _, err := io.ReadFull(c.br, hs[:]); err != nil {
		return fmt.Errorf("handshake reply: %w", err)
	}
	_, err := wire.ParseHandshake(hs[:])
	return err
}

func (c *conn) close() { c.nc.Close() }

func (c *conn) now() int64 { return int64(time.Since(c.epoch)) }

func (c *conn) owns(idx uint32) bool { return c.all || int(idx)%c.m.nconn == c.id }

// nextOp takes the next pre-drawn operation, resolving inserts and deletes
// to concrete fresh keys: a delete with no live fresh key becomes an insert,
// and an insert past the model's capacity becomes an update of the newest
// fresh key — both still pure functions of the stream position.
func (c *conn) nextOp() op {
	o := c.ring[c.pos]
	c.pos++
	if c.pos == len(c.ring) {
		c.pos = 0
	}
	if o.kind == opDelete && c.m.deleted[c.id] == c.m.inserted[c.id] {
		o.kind = opInsert
	}
	switch o.kind {
	case opInsert:
		if n := c.m.inserted[c.id]; n < c.m.freshCap {
			o.idx = c.m.freshIndex(c.id, n)
			c.m.inserted[c.id] = n + 1
		} else {
			o.idx = c.m.freshIndex(c.id, n-1)
		}
		o.kind = opPut
	case opDelete:
		o.idx = c.m.freshIndex(c.id, c.m.deleted[c.id])
		c.m.deleted[c.id]++
	}
	return o
}

// put advances the model to idx's next version and appends that version's
// value to dst.
func (c *conn) put(dst []byte, idx uint32) []byte {
	ver := c.m.ver[idx]&^deletedBit + 1
	c.m.ver[idx] = ver
	c.writesSinceSync++
	c.userBytes += uint64(keyLen + c.vs.length(idx, ver))
	return c.vs.append(dst, idx, ver)
}

// expectGet records what a GET of idx must return.
func (c *conn) expectGet(idx uint32, last bool) {
	e := expect{idx: idx, shape: expGet, last: last, nops: 1}
	if c.owns(idx) {
		v := c.m.ver[idx]
		e.exact, e.ver, e.live = true, v&^deletedBit, v != 0 && v&deletedBit == 0
	}
	c.exp = append(c.exp, e)
}

// encodeSingle writes one single-operation request in the connection's
// protocol and records the reply it must get.
func (c *conn) encodeSingle(o op) {
	key := appendKey(c.kbuf[:0], o.idx)
	switch o.kind {
	case opGet:
		c.expectGet(o.idx, true)
		if c.mix.text {
			c.bw.WriteString("GET ")
			c.bw.Write(key)
			c.bw.WriteByte('\n')
		} else {
			c.enc.Get(key)
		}
	case opPut:
		val := c.put(c.vbuf[:0], o.idx)
		c.exp = append(c.exp, expect{idx: o.idx, shape: expPut, last: true, write: true, nops: 1})
		if c.mix.text {
			c.bw.WriteString("PUT ")
			c.bw.Write(key)
			c.bw.WriteByte(' ')
			c.bw.Write(val)
			c.bw.WriteByte('\n')
		} else {
			c.enc.Put(key, val)
		}
	case opDelete:
		v := c.m.ver[o.idx]
		live := v != 0 && v&deletedBit == 0
		c.m.ver[o.idx] = v | deletedBit
		c.writesSinceSync++
		c.exp = append(c.exp, expect{idx: o.idx, shape: expDel, live: live, last: true, write: true, nops: 1})
		if c.mix.text {
			c.bw.WriteString("DEL ")
			c.bw.Write(key)
			c.bw.WriteByte('\n')
		} else {
			c.enc.Del(key)
		}
	}
}

// encodeFrame writes one multi-op binary frame over the given indices: an
// MGET (one reply per key) or an MPUT (one reply for the frame).
func (c *conn) encodeFrame(read bool, idxs []uint32) {
	c.kbuf, c.vbuf, c.ops = c.kbuf[:0], c.vbuf[:0], c.ops[:0]
	for i, idx := range idxs {
		k0 := len(c.kbuf)
		c.kbuf = appendKey(c.kbuf, idx)
		o := kv.Op{Kind: kv.OpGet, Key: c.kbuf[k0:]}
		if read {
			c.expectGet(idx, i == len(idxs)-1)
		} else {
			v0 := len(c.vbuf)
			c.vbuf = c.put(c.vbuf, idx)
			o.Kind, o.Value = kv.OpPut, c.vbuf[v0:]
		}
		c.ops = append(c.ops, o)
	}
	if read {
		c.enc.Ops(wire.TMGet, c.ops)
		return
	}
	c.exp = append(c.exp, expect{shape: expMPut, last: true, write: true, nops: uint8(len(idxs))})
	c.enc.Ops(wire.TMPut, c.ops)
}

// encodeRequest writes the next request of the pre-drawn stream.
func (c *conn) encodeRequest() {
	if c.mix.frameOps == 1 {
		c.encodeSingle(c.nextOp())
		return
	}
	var idxs [maxFrameOps]uint32
	read := c.ring[c.pos].kind == opGet
	for i := 0; i < c.mix.frameOps; i++ {
		idxs[i] = c.nextOp().idx
	}
	c.encodeFrame(read, idxs[:c.mix.frameOps])
}

// readReply reads one reply. payload aliases the read buffer and is valid
// until the next call.
func (c *conn) readReply() (kind replyKind, payload []byte, n uint64, err error) {
	if c.mix.text {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, 0, err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.Equal(line, []byte("OK")):
			return repOK, nil, 0, nil
		case bytes.Equal(line, []byte("NIL")):
			return repNil, nil, 0, nil
		case bytes.HasPrefix(line, []byte("VAL ")):
			return repVal, line[4:], 0, nil
		case bytes.HasPrefix(line, []byte("ERR")):
			return repErr, line, 0, nil
		case bytes.HasPrefix(line, []byte("OK ")):
			if n, err := strconv.ParseUint(string(line[3:]), 10, 64); err == nil {
				return repUint, nil, n, nil
			}
		}
		return repText, line, 0, nil
	}
	typ, payload, err := c.fr.Next()
	if err != nil {
		return 0, nil, 0, err
	}
	switch typ {
	case wire.TOK:
		return repOK, nil, 0, nil
	case wire.TNil:
		return repNil, nil, 0, nil
	case wire.TVal:
		return repVal, payload, 0, nil
	case wire.TUint:
		n, err := wire.DecodeUintPayload(payload)
		return repUint, nil, n, err
	case wire.TErr:
		return repErr, payload, 0, nil
	}
	return repText, payload, 0, nil
}

// verify checks one reply against its expectation and counts the operations
// it stands for as attempted and, if anything is off, as failed.
func (c *conn) verify(e *expect, kind replyKind, payload []byte, n uint64) {
	c.attempted += uint64(e.nops)
	ok := false
	switch e.shape {
	case expGet:
		switch kind {
		case repVal:
			ver, good := c.vs.check(e.idx, payload)
			switch {
			case !good:
			case e.exact:
				ok = e.live && ver == e.ver
			default:
				// Another connection writes this key: the value must be one
				// that was really written (check proved that) and must never
				// move backwards for this reader.
				if ok = ver >= c.lastSeen[e.idx]; ok {
					c.lastSeen[e.idx] = ver
				}
			}
		case repNil:
			ok = e.exact && !e.live
		}
	case expPut, expSync:
		ok = kind == repOK
	case expMPut:
		ok = kind == repUint && n == uint64(e.nops)
	case expDel:
		ok = kind == repOK && e.live || kind == repNil && !e.live
	}
	if !ok {
		c.fail(uint64(e.nops), fmt.Sprintf("conn %d key %d: want shape %d ver %d exact=%t live=%t, got kind %d %q",
			c.id, e.idx, e.shape, e.ver, e.exact, e.live, kind, truncate(payload, 48)))
	}
}

func truncate(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n]
	}
	return b
}

// fail counts n failed operations and keeps the first few descriptions.
func (c *conn) fail(n uint64, what string) {
	c.failed += n
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, what)
	}
}

// broken accounts for a connection that died mid-burst: every reply still
// owed from index from on is a failed operation.
func (c *conn) broken(from int, err error) error {
	var n uint64
	for _, e := range c.exp[from:] {
		n += uint64(e.nops)
	}
	c.attempted += n
	c.fail(n, fmt.Sprintf("conn %d: %v", c.id, err))
	return fmt.Errorf("conn %d: %w", c.id, err)
}

// step runs one closed-loop iteration: encode a burst of requests, flush
// once, read and verify every reply, and record each request's flush→reply
// latency. It allocates nothing.
func (c *conn) step() error {
	c.exp = c.exp[:0]
	tEnc := c.now()
	for r := 0; r < c.mix.burst; r++ {
		c.encodeRequest()
	}
	return c.exchange(tEnc)
}

// exchange flushes the encoded burst and consumes its replies.
func (c *conn) exchange(tEnc int64) error {
	t0 := c.now()
	if err := c.bw.Flush(); err != nil {
		return c.broken(0, err)
	}
	var tFlushed, tFirst int64
	if c.tr != nil {
		tFlushed = c.now()
	}
	var ops uint64
	t := t0
	for i := range c.exp {
		kind, payload, n, err := c.readReply()
		if err != nil {
			return c.broken(i, err)
		}
		if i == 0 && c.tr != nil {
			tFirst = c.now()
		}
		e := &c.exp[i]
		c.verify(e, kind, payload, n)
		ops += uint64(e.nops)
		if e.last {
			t = c.now()
			c.rec.observe(t, t-t0, e.write)
		}
	}
	c.rec.addOps(t, ops)
	if c.tr != nil {
		c.burstID++
		id := int64(c.id)<<40 | c.burstID
		p := c.tr.add("req", tEnc, t, -1, id)
		c.tr.add("client.encode", tEnc, t0, p, id)
		c.tr.add("client.flush", t0, tFlushed, p, id)
		c.tr.add("client.wait", tFlushed, tFirst, p, id)
		c.tr.add("client.decode", tFirst, t, p, id)
	}
	if c.mix.syncEvery > 0 && c.writesSinceSync >= c.mix.syncEvery {
		return c.sync()
	}
	return nil
}

// sync issues the durability barrier alone and times its round trip.
func (c *conn) sync() error {
	c.writesSinceSync = 0
	c.exp = append(c.exp[:0], expect{shape: expSync, last: true, nops: 1})
	if c.mix.text {
		c.bw.WriteString("SYNC\n")
	} else {
		c.enc.Request0(wire.TSync)
	}
	t0 := c.now()
	if err := c.bw.Flush(); err != nil {
		return c.broken(0, err)
	}
	kind, payload, n, err := c.readReply()
	if err != nil {
		return c.broken(0, err)
	}
	c.syncLat.record(c.now() - t0)
	c.verify(&c.exp[0], kind, payload, n)
	return nil
}

// one runs a single request — a read or a write of idxs, as one operation
// or one frame, whichever the workload uses — alone: the solo phase's
// one-in-flight round trip.
func (c *conn) one(read bool, idxs []uint32) error {
	c.exp = c.exp[:0]
	tEnc := c.now()
	switch {
	case c.mix.frameOps > 1:
		c.encodeFrame(read, idxs)
	case read:
		c.encodeSingle(op{kind: opGet, idx: idxs[0]})
	default:
		c.encodeSingle(op{kind: opPut, idx: idxs[0]})
	}
	return c.exchange(tEnc)
}
