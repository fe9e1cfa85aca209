package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"time"

	"crafty/internal/core"
	"crafty/internal/harness"
	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/obs"
	"crafty/internal/ptm"
	"crafty/internal/workloads/bank"
)

// engine-bank is the paper's own measurement: the bank workload (medium
// contention: 4,096 accounts, five transfers — ten persistent writes — per
// transaction) on the Crafty engine at the paper's 300 ns persist latency,
// with no server in the way. One transaction in sixteen is a read-only audit
// of ten accounts through AtomicRead, so the engine's read path has a
// latency too.
const (
	bankAccounts    = 4096
	bankBalance     = 1000
	auditEvery      = 16
	auditAccounts   = 10
	recoverTxns     = 5000 // per worker, before each injected crash
	engineLatency   = 300 * time.Nanosecond
	engineWorkload  = "engine-bank"
	engineHeapExtra = 1 << 20
)

// bankRun is one engine with the bank workload set up on it.
type bankRun struct {
	heap    *nvm.Heap
	eng     ptm.Engine
	wl      *bank.Bank
	base    nvm.Addr // account i lives at base + i*WordsPerLine
	threads []ptm.Thread
	reg     *obs.Registry
}

// newBankRun is what engine-bank's setup_s times: heap, engine, Setup.
func newBankRun(kind harness.EngineKind, threads int, latency time.Duration, tracked bool) (*bankRun, error) {
	wl := bank.New(bank.Config{Contention: bank.MediumContention, Threads: threads, InitialBalance: bankBalance})
	req := wl.Requirements()
	heap := nvm.NewHeap(nvm.Config{
		Words:            req.HeapWords + req.ArenaWords + (threads+2)*(1<<18) + engineHeapExtra,
		PersistLatency:   latency,
		TrackPersistence: tracked,
	})
	eng, err := harness.BuildEngine(kind, heap, req.ArenaWords, htm.Config{})
	if err != nil {
		return nil, err
	}
	b := &bankRun{heap: heap, eng: eng, wl: wl, reg: obs.NewRegistry()}
	b.threads = append(b.threads, eng.Register())
	// Setup carves the accounts as one line-aligned region; that is the next
	// carve. The audit reads accounts by address, so check the assumption.
	b.base = nvm.Addr(heap.CarvedWords())
	if err := wl.Setup(eng, b.threads[0]); err != nil {
		return nil, err
	}
	var total uint64
	for i := 0; i < bankAccounts; i++ {
		total += heap.Load(b.account(i))
	}
	if total != bankAccounts*bankBalance {
		return nil, fmt.Errorf("bank accounts are not where the audit expects them (sum %d)", total)
	}
	for len(b.threads) < threads {
		b.threads = append(b.threads, eng.Register())
	}
	heap.RegisterMetrics(b.reg, "nvm")
	if ce, ok := eng.(*core.Engine); ok {
		ce.Metrics().RegisterInto(b.reg, "core")
	}
	return b, nil
}

func (b *bankRun) account(i int) nvm.Addr { return b.base + nvm.Addr(i*nvm.WordsPerLine) }

// snapshot is the engine's counters under the names the server's INFO uses,
// so one function turns either into per-layer metrics.
func (b *bankRun) snapshot() info {
	out := info(b.reg.SnapshotMap())
	st := b.eng.Stats()
	for o := 0; o < ptm.NumOutcomes; o++ {
		out["core.outcomes."+ptm.Outcome(o).MetricKey()] = int64(st.Persistent[o])
	}
	out["core.txns"] = int64(st.Txns())
	out["core.writes"] = int64(st.Writes)
	out["htm.commits"] = int64(st.HTM.Commits)
	for c := htm.CauseConflict; int(c) < htm.NumCauses; c++ {
		out["htm.aborts."+c.String()] = int64(st.HTM.Aborts[c])
	}
	return out
}

// bankWorker is one worker's loop state.
type bankWorker struct {
	id        int
	th        ptm.Thread
	rng       *rand.Rand
	rec       *recorder
	n         uint64
	attempted uint64
	failed    uint64
	firstErr  error
	tr        *tracer
}

// one runs one transaction — an audit of picks, or a transfer — and counts it.
func (w *bankWorker) one(b *bankRun, audit bool, picks *[auditAccounts]nvm.Addr) {
	var err error
	if audit {
		err = w.th.AtomicRead(func(tx ptm.Tx) error {
			var sum uint64
			for _, a := range picks {
				sum += tx.Load(a)
			}
			_ = sum
			return nil
		})
	} else {
		err = b.wl.Run(w.id, w.th, w.rng)
	}
	w.attempted++
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
}

func (w *bankWorker) pick(b *bankRun, picks *[auditAccounts]nvm.Addr) {
	for i := range picks {
		picks[i] = b.account(w.rng.Intn(bankAccounts))
	}
}

// step runs one transaction — a transfer, or every auditEvery-th time an
// audit — and records its latency.
func (w *bankWorker) step(b *bankRun, epoch time.Time) {
	w.n++
	audit := w.n%auditEvery == 0
	var picks [auditAccounts]nvm.Addr
	if audit {
		w.pick(b, &picks)
	}
	t0 := int64(time.Since(epoch))
	w.one(b, audit, &picks)
	t1 := int64(time.Since(epoch))
	w.rec.observe(t1, t1-t0, !audit)
	w.rec.addOps(t1, 1)
	if w.tr != nil {
		name := "core.atomic"
		if audit {
			name = "core.atomic_read"
		}
		w.tr.add(name, t0, t1, -1, int64(w.id)<<40|int64(w.n))
	}
}

// soloGroup is how many transactions of one kind the solo phase times as one.
const soloGroup = 8

// soloStep is the solo phase's step: soloGroup transfers timed as one, then
// soloGroup audits timed as one, each recorded as the group's mean. An audit
// takes 0.24 µs and the two clock readings around it 0.04 µs on most minutes
// and 0.2 µs on some (two runs in ten showed that much added to audits and
// transfers alike), so a single audit's timing measures the clock.
func (w *bankWorker) soloStep(b *bankRun, epoch time.Time) {
	w.n++
	audit := w.n%2 == 0
	var picks [soloGroup][auditAccounts]nvm.Addr
	if audit {
		for i := range picks {
			w.pick(b, &picks[i])
		}
	}
	t0 := int64(time.Since(epoch))
	for i := range picks {
		w.one(b, audit, &picks[i])
	}
	t1 := int64(time.Since(epoch))
	w.rec.observe(t1, (t1-t0)/soloGroup, !audit)
	w.rec.addOps(t1, soloGroup)
}

// phase runs workers for dur in slices, each looping step, and merges their
// measurements.
func (b *bankRun) phase(workers []*bankWorker, dur time.Duration, slices int, step func(*bankWorker, *bankRun, time.Time)) *recorder {
	epoch := time.Now()
	sliceDur := dur / time.Duration(slices)
	recs := make([]*recorder, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		recs[i] = newRecorder(sliceDur, slices)
		w.rec = recs[i]
		wg.Add(1)
		go func(w *bankWorker) {
			defer wg.Done()
			for time.Since(epoch) < dur {
				step(w, b, epoch)
			}
		}(w)
	}
	wg.Wait()
	return mergeRecorders(recs)
}

func (b *bankRun) workers(seed int64) []*bankWorker {
	ws := make([]*bankWorker, len(b.threads))
	for i, th := range b.threads {
		ws[i] = &bankWorker{id: i, th: th, rng: rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ uint64(i+1)<<32))))}
	}
	return ws
}

// settle folds the workers' counts into res and checks conservation.
func (b *bankRun) settle(res *result, workers []*bankWorker) {
	for _, w := range workers {
		res.Attempted += w.attempted
		res.Failed += w.failed
		if w.firstErr != nil {
			res.Failures = append(res.Failures, w.firstErr.Error())
		}
		w.attempted, w.failed, w.firstErr = 0, 0, nil
	}
	res.Attempted++
	if err := b.wl.Check(b.heap); err != nil {
		res.Failed++
		res.Failures = append(res.Failures, err.Error())
	}
}

// recoverOnce runs transfers on a persistence-tracked heap, injects a power
// failure that keeps each unfenced word with probability one half, and times
// the paper's recovery: log scan and rollback, then reopening the engine.
// Money must still be conserved.
func recoverOnce(res *result, threads int, seed int64) (time.Duration, error) {
	b, err := newBankRun(harness.Crafty, threads, engineLatency, true)
	if err != nil {
		return 0, err
	}
	layout := b.eng.(*core.Engine).Layout()
	workers := b.workers(seed)
	epoch := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		w.rec = newRecorder(time.Hour, 1)
		wg.Add(1)
		go func(w *bankWorker) {
			defer wg.Done()
			for i := 0; i < recoverTxns; i++ {
				w.step(b, epoch)
			}
		}(w)
	}
	wg.Wait()
	b.eng.Close()
	b.heap.Crash(nvm.NewRandomPolicy(seed, 0.5))
	t0 := time.Now()
	rep, err := core.Recover(b.heap, layout)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	eng, err := core.Open(b.heap, layout, core.Config{})
	if err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	eng.AdvanceClock(rep.MaxTimestamp)
	d := time.Since(t0)
	b.settle(res, workers)
	return d, eng.Close()
}

func runEngineWorkload(opt *options) (*result, error) {
	res := newResult(engineWorkload)
	ph := phasesFor(opt.seconds, opt.trace, opt.quick)

	// A set-up here takes 3 ms, not 1.5 s: five times the server's count.
	var setups []float64
	var b *bankRun
	for i := 0; i < 5*ph.setups; i++ {
		if b != nil {
			b.eng.Close()
		}
		t0 := time.Now()
		var err error
		if b, err = newBankRun(harness.Crafty, opt.nproc, engineLatency, false); err != nil {
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.eng.Close()
	res.e2e("setup_s", median(setups), uint64(len(setups)))

	workers := b.workers(opt.seed)
	b.phase(workers, ph.warm, 1, (*bankWorker).step)
	if opt.trace {
		if err := engineTraced(opt, ph, b, workers, res); err != nil {
			return res, err
		}
		b.settle(res, workers)
		return res, nil
	}

	// The solo phase in two halves around the loaded one, as for the server.
	solo1 := b.phase(workers[:1], ph.solo/2, 1, (*bankWorker).soloStep)
	rec := b.phase(workers, ph.loaded, ph.slices, (*bankWorker).step)
	res.e2e("ops_per_s", rec.fastOpsPerSec(), rec.totalOps())
	loadedInfo(res, rec)
	solo2 := b.phase(workers[:1], ph.solo/2, 1, (*bankWorker).soloStep)
	soloMetrics(res, mergeRecorders([]*recorder{solo1, solo2}))
	b.settle(res, workers)

	res.e2e("space_amp", ratio(float64(b.heap.CarvedWords())*8, bankAccounts*8), 1)

	// A recovery here takes 20 ms, not 400: eight times the server's rounds
	// cost a second and a half and steady the fastest-of figure.
	var ms []float64
	for round := 0; round < 8*ph.rounds; round++ {
		d, err := recoverOnce(res, opt.nproc, opt.seed+int64(round))
		if err != nil {
			return res, err
		}
		ms = append(ms, float64(d)/1e6)
	}
	res.e2e("recovery_ms", slices.Min(ms), uint64(len(ms)))

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return res, err
	}
	res.e2e("rss_mb", rss, 1)
	return res, nil
}
