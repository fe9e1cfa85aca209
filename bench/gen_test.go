package main

import (
	"testing"
	"time"

	"crafty/internal/workloads/ycsb"
)

const testRecords = 2000

// The seed fixes every key, operation kind and (through the value space)
// value length: same seed, same stream; another seed or connection, another.
func TestStreamsAreDeterministic(t *testing.T) {
	z := ycsb.NewZipf(testRecords, ycsb.ZipfTheta)
	for _, mx := range serverMixes {
		h := func(seed int64, conn int) uint64 {
			return streamHash(drawStream(mx, seed, conn, 2, testRecords, 1<<12, z))
		}
		if h(1, 0) != h(1, 0) {
			t.Errorf("%s: same seed, different streams", mx.name)
		}
		if h(1, 0) == h(2, 0) {
			t.Errorf("%s: seeds 1 and 2 draw the same stream", mx.name)
		}
		if h(1, 0) == h(1, 1) {
			t.Errorf("%s: both connections draw the same stream", mx.name)
		}
		for _, o := range drawStream(mx, 1, 1, 2, testRecords, 1<<12, z) {
			if o.kind == opPut && o.idx%2 != 1 {
				t.Fatalf("%s: connection 1 writes key %d, which connection 0 owns", mx.name, o.idx)
			}
		}
	}
	a, b := newValueSpace(1, true), newValueSpace(1, true)
	if string(a.append(nil, 7, 3)) != string(b.append(nil, 7, 3)) || a.length(7, 3) != b.length(7, 3) {
		t.Errorf("same seed, different values")
	}
	if string(a.append(nil, 7, 3)) == string(newValueSpace(2, true).append(nil, 7, 3)) {
		t.Errorf("seeds 1 and 2 produce the same value")
	}
}

func TestValuesCheckThemselves(t *testing.T) {
	for _, variable := range []bool{false, true} {
		vs := newValueSpace(9, variable)
		for ver := uint32(1); ver < 300; ver++ {
			val := vs.append(nil, 42, ver)
			if n := len(val); n < minVarLen || n > maxVarLen || (!variable && n != loadedLen) {
				t.Fatalf("version %d has length %d", ver, n)
			}
			if got, ok := vs.check(42, val); !ok || got != ver {
				t.Fatalf("version %d checks as %d, %t", ver, got, ok)
			}
			if _, ok := vs.check(43, val); ok {
				t.Fatalf("key 42's value passes as key 43's")
			}
			val[len(val)-1] ^= 1
			if _, ok := vs.check(42, val); ok {
				t.Fatalf("a corrupted value passes")
			}
			if _, ok := vs.check(42, val[:len(val)-1]); ok {
				t.Fatalf("a truncated value passes")
			}
		}
	}
}

// stepConn is a connection over a fake server, preloaded, ready to step.
func stepConn(t *testing.T, mx *mix) (*conn, *fakeServer) {
	t.Helper()
	m := newModel(testRecords, 2, 1<<12)
	fs := newFakeServer(len(m.ver), mx.text)
	vs := newValueSpace(1, mx.variable)
	// The preload is binary whatever the workload speaks, as in a real run.
	pre := newFakeServer(0, false)
	pre.store = fs.store
	admin := newConn(pre, 0, adminMix, m, vs, time.Now())
	admin.all = true
	if err := admin.handshake(); err != nil {
		t.Fatal(err)
	}
	idxs := make([]uint32, testRecords)
	for i := range idxs {
		idxs[i] = uint32(i)
	}
	if err := admin.frames(false, idxs, 8); err != nil || admin.failed != 0 {
		t.Fatalf("preload: %v, %d failed", err, admin.failed)
	}
	c := newConn(fs, 0, mx, m, vs, time.Now())
	if !mx.text {
		if err := c.handshake(); err != nil {
			t.Fatal(err)
		}
	}
	c.ring = drawStream(mx, 1, 0, 2, testRecords, 1<<12, ycsb.NewZipf(testRecords, ycsb.ZipfTheta))
	return c, fs
}

// One burst step — encode, flush, read, verify, record — allocates nothing,
// in every workload's protocol and shape, so the numbers measure craftykv
// and not the generator's garbage collector.
func TestStepDoesNotAllocate(t *testing.T) {
	for _, mx := range serverMixes {
		c, _ := stepConn(t, mx)
		for i := 0; i < 200; i++ { // let every buffer reach its working size
			if err := c.step(); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(200, func() { c.step() }); n != 0 {
			t.Errorf("%s: %v allocations per burst step, want 0", mx.name, n)
		}
		if c.failed != 0 || c.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", mx.name, c.failed, c.attempted, c.failures)
		}
	}
}

// streamHash folds a stream into one word (FNV-1a over kind and index); the
// determinism test compares it across seeds.
func streamHash(ops []op) uint64 {
	h := uint64(14695981039346656037)
	for _, o := range ops {
		h = (h ^ uint64(o.kind)) * 1099511628211
		h = (h ^ uint64(o.idx)) * 1099511628211
	}
	return h
}
