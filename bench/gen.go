package main

import (
	"math/rand"

	"crafty/internal/workloads/ycsb"
)

// opKind is what one pre-drawn operation does.
type opKind uint8

const (
	opGet    opKind = iota // GET of any preloaded key
	opPut                  // PUT of a preloaded key this connection owns (next version)
	opInsert               // PUT of this connection's next fresh key
	opDelete               // DEL of this connection's oldest live fresh key
)

// op is one pre-drawn operation: its kind and, for opGet/opPut, the key
// index. Inserts and deletes name no index — which fresh key they touch
// follows from the stream position alone, so the stream stays a pure
// function of the seed.
type op struct {
	kind opKind
	idx  uint32
}

// mix is the traffic shape of one server workload. Everything the generator
// decides is either here or drawn from the seed.
type mix struct {
	name    string
	text    bool // line protocol instead of binary frames
	records int  // keys preloaded before the run

	// Operation shares in percent; they sum to 100.
	getPct, putPct, insertPct, deletePct int
	uniform                              bool // key choice: uniform instead of scrambled zipfian

	frameOps int // operations per request (1, or 16 for MGET/MPUT frames)
	burst    int // requests written before the one flush, i.e. in flight per connection
	// readFrameEvery makes every n-th multi-op frame an MGET over owned keys
	// (0: never), so a batched write workload still yields read latencies
	// and verifies values while it runs.
	readFrameEvery int

	variable   bool   // value lengths are redrawn per version (footprint changes)
	syncEvery  int    // SYNC after this many writes per connection (0: never)
	checkpoint string // server -checkpoint cadence ("" = off)
}

// scramble spreads a zipfian rank over the key space so popular keys are
// not clustered in a few shards (YCSB's ScrambledZipfianGenerator).
func scramble(rank uint64, n int) uint32 {
	return uint32(splitmix64(rank) % uint64(n))
}

// owned maps idx to the nearest preloaded index that connection conn owns.
// Each key has exactly one writing connection (idx mod nconn), which is
// what lets an owner's GET be checked against an exact version.
func owned(idx uint32, conn, nconn, records int) uint32 {
	i := int(idx) - int(idx)%nconn + conn
	if i >= records {
		i -= nconn
	}
	return uint32(i)
}

// drawStream pre-draws n operations for one connection from the seed. The
// ring is drawn before any timing starts and replayed cyclically, so the
// program under test receives nothing but these bytes and the generator
// does no random-number work while measuring.
func drawStream(m *mix, seed int64, conn, nconn, records, n int, z *ycsb.Zipf) []op {
	rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ uint64(conn+1)<<32))))
	key := func() uint32 {
		if m.uniform {
			return uint32(rng.Intn(records))
		}
		return scramble(z.Next(rng), records)
	}
	ops := make([]op, n)
	for i := 0; i < n; {
		if m.frameOps > 1 {
			// A multi-op frame is all reads or all writes.
			kind := opPut
			if frame := i / m.frameOps; m.readFrameEvery > 0 && frame%m.readFrameEvery == m.readFrameEvery-1 {
				kind = opGet
			}
			for j := 0; j < m.frameOps && i < n; j++ {
				ops[i] = op{kind: kind, idx: owned(key(), conn, nconn, records)}
				i++
			}
			continue
		}
		switch p := rng.Intn(100); {
		case p < m.getPct:
			ops[i] = op{kind: opGet, idx: key()}
		case p < m.getPct+m.putPct:
			ops[i] = op{kind: opPut, idx: owned(key(), conn, nconn, records)}
		case p < m.getPct+m.putPct+m.insertPct:
			ops[i] = op{kind: opInsert}
		default:
			ops[i] = op{kind: opDelete}
		}
		i++
	}
	return ops
}
