package main

import (
	"io"
	"net"
	"time"

	"crafty/internal/alloc"
	"crafty/internal/core"
	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// ladder times calls into the layers that can be imported, one span per
// call, from the benchmark's own goroutine. A rung's reported time is the
// median span minus the clock's own cost (the median empty span), so rungs
// can be subtracted from each other and from a round trip.
type ladder struct {
	tr    *tracer
	epoch time.Time
	clock float64 // ns one pair of clock reads costs
	req   int64
}

// spansPerRung is how many calls of each rung leave a span in the trace
// file; every call still counts towards the rung's median.
const spansPerRung = 2048

func newLadder(tr *tracer) *ladder {
	l := &ladder{tr: tr, epoch: time.Now()}
	var h hist
	for i := 0; i < 20000; i++ {
		t0 := time.Since(l.epoch)
		h.record(int64(time.Since(l.epoch) - t0))
	}
	l.clock, _, _ = h.quantile(0.5)
	return l
}

// measure calls fn for about dur (at least 200 calls), records a span per
// call under name, and returns the median call time net of the clock, with
// the number of calls.
func (l *ladder) measure(name string, dur time.Duration, fn func()) (ns float64, n uint64) {
	var h hist
	deadline := time.Now().Add(dur)
	for i := 0; ; i++ {
		if i >= 200 && i%64 == 0 && !time.Now().Before(deadline) {
			break
		}
		t0 := int64(time.Since(l.epoch))
		fn()
		t1 := int64(time.Since(l.epoch))
		h.record(t1 - t0)
		if i < spansPerRung {
			l.req++
			l.tr.add(name, t0, t1, -1, l.req)
		}
	}
	med, n, _ := h.quantile(0.5)
	return max(med-l.clock, 0), n
}

// echoRTT is the loopback floor under a request of reqBytes answered by
// repBytes: one write and one read on each side of a TCP connection to an
// in-process echo goroutine, nothing else. What a solo round trip costs
// beyond this is the program's.
func echoRTT(l *ladder, reqBytes, repBytes int, dur time.Duration) (ns float64, n uint64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		req, rep := make([]byte, reqBytes), make([]byte, repBytes)
		for {
			if _, err := io.ReadFull(c, req); err != nil {
				return
			}
			if _, err := c.Write(rep); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, 0, err
	}
	req, rep := make([]byte, reqBytes), make([]byte, repBytes)
	var ioErr error
	ns, n = l.measure("net.echo", dur, func() {
		if _, err := c.Write(req); err != nil && ioErr == nil {
			ioErr = err
		}
		if _, err := io.ReadFull(c, rep); err != nil && ioErr == nil {
			ioErr = err
		}
	})
	c.Close()
	<-done
	return ns, n, ioErr
}

// heapStorer lets the allocator's transactional entry points be driven
// without an engine: header flips go straight to the heap.
type heapStorer struct{ heap *nvm.Heap }

func (s heapStorer) Store(addr nvm.Addr, val uint64) { s.heap.Store(addr, val) }

// engineRungs times the engine layers bottom-up on one heap: a bare
// hardware transaction of the bank's shape (ten loads, ten stores), the same
// body as a persistent transaction through core, a read-only transaction, a
// flush-and-fence of ten lines, a drain, and an allocate/free pair through a
// transaction's allocation log. latency and tracked are the heap settings of
// the workload being explained (the server: no latency, tracked; the paper's
// engine run: 300 ns, untracked).
func engineRungs(res *result, l *ladder, latency time.Duration, tracked bool, dur time.Duration) error {
	const accounts = 4096
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 22, PersistLatency: latency, TrackPersistence: tracked})
	eng, err := core.NewEngine(heap, core.Config{ArenaWords: 1 << 18})
	if err != nil {
		return err
	}
	defer eng.Close()
	base, err := heap.Carve(accounts * nvm.WordsPerLine)
	if err != nil {
		return err
	}
	account := func(i uint64) nvm.Addr { return base + nvm.Addr(i%accounts*nvm.WordsPerLine) }
	each := dur / 6
	var x uint64
	next := func() uint64 { x = splitmix64(x); return x }

	hw := eng.HTM().NewThread(1)
	var picks [10]nvm.Addr
	draw := func() {
		for i := range picks {
			picks[i] = account(next())
		}
	}
	htmBody := func(tx *htm.Tx) {
		for _, a := range picks {
			tx.Store(a, tx.Load(a)+1)
		}
	}
	htmNs, n := l.measure("htm.txn", each, func() { draw(); hw.Run(htmBody) })
	res.layer("htm.txn_ns", htmNs, n)

	th := eng.Register()
	body := func(tx ptm.Tx) error {
		for _, a := range picks {
			tx.Store(a, tx.Load(a)+1)
		}
		return nil
	}
	var txErr error
	atomicNs, n := l.measure("core.atomic", each, func() {
		draw()
		if err := th.Atomic(body); err != nil {
			txErr = err
		}
	})
	res.layer("core.atomic_ns", atomicNs, n)
	res.layer("core.added_ns", atomicNs-htmNs, n)

	readBody := func(tx ptm.Tx) error {
		var sum uint64
		for _, a := range picks {
			sum += tx.Load(a)
		}
		x ^= sum & 1
		return nil
	}
	readNs, n := l.measure("core.atomic_read", each, func() {
		draw()
		if err := th.AtomicRead(readBody); err != nil {
			txErr = err
		}
	})
	res.layer("core.atomic_read_ns", readNs, n)
	if txErr != nil {
		return txErr
	}

	f := heap.NewFlusher()
	flushNs, n := l.measure("nvm.flush_fence", each, func() {
		draw()
		for _, a := range picks {
			heap.Store(a, 1)
			f.Flush(a)
		}
		f.Fence()
	})
	res.layer("nvm.flush_fence_ns", flushNs, n)
	drainNs, n := l.measure("nvm.drain", each, f.Drain)
	res.layer("nvm.drain_ns", drainNs, n)

	arena, err := alloc.NewArenaCarved(heap, 1<<16)
	if err != nil {
		return err
	}
	log, st := alloc.NewTxLog(arena, f), heapStorer{heap}
	pairNs, n := l.measure("alloc.pair", each, func() {
		log.Begin()
		log.Free(log.Alloc(16, st), st)
		log.Commit()
		f.Fence()
	})
	res.layer("alloc.pair_ns", pairNs, n)
	return nil
}
