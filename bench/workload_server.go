package main

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"crafty/internal/workloads/ycsb"
)

// The three server workloads. Why each exists is in README.md and
// BENCHMARK.json; the shapes are here.
//
// churn-text preloads 75,000 records, not 100,000: a shard rehashes when 3/4
// of its slots are used, which for 64 shards of 2,048 slots is 98,304 keys,
// and the workload's net growth of 5% of its operations has to carry every
// shard across that line inside the loaded phase for the rehash to be part
// of what is measured.
var serverMixes = []*mix{
	{name: "read-single", records: 100000, getPct: 95, putPct: 5, frameOps: 1, burst: 32},
	{name: "write-batch", records: 100000, uniform: true, frameOps: 16, burst: 4, readFrameEvery: 8},
	{name: "churn-text", records: 75000, text: true, getPct: 50, putPct: 25, insertPct: 15, deletePct: 10,
		frameOps: 1, burst: 32, variable: true, syncEvery: 256, checkpoint: "1s"},
}

// adminMix drives the binary side connection that preloads, writes the
// durability tail and reads everything back; it is never measured.
var adminMix = &mix{name: "admin", frameOps: maxFrameOps}

const (
	// Server sizing: every workload peaks below half of the arena (churn-text,
	// whose records change size and whose key count grows, at about a third).
	serverHeapWords  = 1 << 24
	serverArenaWords = 3 << 22
	freshCap         = 1 << 20 // fresh keys one connection may insert per run

	// The load is the same on every box: two connections, each with one burst
	// in flight, against two scheduler workers. Client and server share one
	// core (pin.go), so while the client waits for one connection's replies
	// the server always has the other's burst to work on.
	connections = 2
	serverPool  = 2

	// sliceLen is the target length of a loaded-phase slice. ops_per_s is
	// taken from the fastest quarter of the slices, and a slow stretch of the
	// host spoils every slice it touches, so shorter would be steadier; but a
	// slice must span churn-text's checkpoint period, or the fastest slices
	// would simply be the ones without a checkpoint.
	sliceLen = time.Second
)

// options are the knobs one invocation fixes for every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	nproc   int    // engine-bank's workers; the server workloads use one core
	bin     string // built craftykv
	outDir  string // trace files
	// arenaWords overrides the server's arena size; the lifecycle test sets
	// it too small for the preload to make a run fail with its server up.
	arenaWords int
	env        map[string]any
}

func (o *options) ringLen() int {
	if o.quick {
		return 1 << 14
	}
	return 1 << 20
}

// phases are the lengths of one run's stages, all derived from -seconds so
// that both sides of a comparison run the same schedule.
type phases struct {
	setups int           // set-ups timed; the last one's server is measured
	warm   time.Duration // discarded
	loaded time.Duration // untraced loaded phase
	traced time.Duration // trace mode only: second loaded phase, with spans
	solo   time.Duration // one connection, one request in flight; half before the loaded phase, half after
	ladder time.Duration // trace mode only: in-process replay and ladder
	slices int           // slices per loaded phase
	rounds int           // durability-tail rounds of {PUTs, SYNC, CRASH}
	puts   int           // fresh PUTs per round
}

func phasesFor(seconds float64, trace, quick bool) phases {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	ph := phases{setups: 3, warm: d(0.125), loaded: d(0.9), solo: d(0.1), rounds: 3, puts: 2000}
	if trace {
		ph = phases{setups: 1, warm: d(0.125), loaded: d(0.3), traced: d(0.3), solo: d(0.1), ladder: d(0.3),
			rounds: 1, puts: 2000}
	}
	// Whole slices of sliceLen where the phase is long enough for four.
	ph.slices = 4
	if n := int(ph.loaded / sliceLen); n >= 4 {
		ph.slices = n
		ph.loaded = time.Duration(n) * sliceLen
		if trace {
			ph.traced = ph.loaded
		}
	}
	if quick {
		ph.setups, ph.rounds, ph.puts = 1, 1, 200
	}
	return ph
}

// serverRun is one workload's run against one craftykv process.
type serverRun struct {
	mix     *mix
	opt     *options
	ph      phases
	records int // mix.records, or a few thousand in a quick pass
	res     *result

	srv   *serverProc
	ctl   *control
	admin *conn
	conns []*conn
	m     *model
	vs    *valueSpace
	epoch time.Time
}

func (r *serverRun) serverArgs() []string {
	arena := serverArenaWords
	if r.opt.arenaWords != 0 {
		arena = r.opt.arenaWords
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-pool", strconv.Itoa(serverPool),
		"-shards", "64", "-slots", "256",
		"-heap-words", strconv.Itoa(serverHeapWords),
		"-arena-words", strconv.Itoa(arena),
	}
	if r.mix.checkpoint != "" {
		args = append(args, "-checkpoint", r.mix.checkpoint)
	}
	return args
}

// setup is what setup_s times: start the server, preload every record
// through 16-op MPUT frames, SYNC. It leaves r.srv, r.admin, r.ctl and a
// model in which every preloaded key is at version 1.
func (r *serverRun) setup() (time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(r.opt.bin, r.serverArgs())
	if err != nil {
		return 0, err
	}
	r.srv = srv
	r.m = newModel(r.records, connections, freshCap)
	r.vs = newValueSpace(r.opt.seed, r.mix.variable)
	r.epoch = time.Now()
	if r.ctl, err = dialControl(srv.addr); err != nil {
		return 0, err
	}
	if r.admin, err = dialConn(srv.addr, 0, adminMix, r.m, r.vs, r.epoch); err != nil {
		return 0, err
	}
	r.admin.all = true
	idxs := make([]uint32, r.records)
	for i := range idxs {
		idxs[i] = uint32(i)
	}
	if err := r.admin.frames(false, idxs, 8); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	if r.admin.failed > 0 {
		return 0, fmt.Errorf("preload: %d of %d operations failed", r.admin.failed, r.admin.attempted)
	}
	if _, err := r.ctl.expectOK("SYNC"); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// teardown folds every connection's attempted and failed operations into
// the result, closes the connections and stops the server.
func (r *serverRun) teardown() {
	if r.admin != nil {
		r.conns = append(r.conns, r.admin)
		r.admin = nil
	}
	for _, c := range r.conns {
		r.res.Attempted += c.attempted
		r.res.Failed += c.failed
		r.res.Failures = append(r.res.Failures, c.failures...)
		c.close()
	}
	r.conns = nil
	if r.ctl != nil {
		r.ctl.close()
		r.ctl = nil
	}
	if r.srv != nil {
		r.srv.stop()
		r.srv = nil
	}
}

// frames sends idxs as multi-op frames (MGET if read, else MPUT), inflight
// frames per flush, verifying every reply.
func (c *conn) frames(read bool, idxs []uint32, inflight int) error {
	for len(idxs) > 0 {
		c.exp = c.exp[:0]
		t := c.now()
		for f := 0; f < inflight && len(idxs) > 0; f++ {
			n := min(maxFrameOps, len(idxs))
			c.encodeFrame(read, idxs[:n])
			idxs = idxs[n:]
		}
		if err := c.exchange(t); err != nil {
			return err
		}
	}
	return nil
}

// phase runs every connection's closed loop for dur, cut into slices, and
// returns the merged measurements. Each connection finishes the burst it is
// in when time runs out, so nothing is in flight when phase returns. sample,
// if not nil, is called once in the middle of every slice.
func (r *serverRun) phase(conns []*conn, dur time.Duration, slices int, body func(*conn) error, sample func()) (*recorder, error) {
	sliceDur := dur / time.Duration(slices)
	start := int64(time.Since(r.epoch))
	end := start + int64(dur)
	recs := make([]*recorder, len(conns))
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		recs[i] = newRecorder(sliceDur, slices)
		recs[i].start = start
		c.rec = recs[i]
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			for c.now() < end {
				if err := body(c); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	if sample != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < slices; s++ {
				time.Sleep(time.Until(r.epoch.Add(time.Duration(start) + sliceDur*time.Duration(s) + sliceDur/2)))
				sample()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeRecorders(recs), nil
}

// soloStep is the solo phase's body: alternately one read and one write of
// keys this connection owns, one request in flight.
func soloStep(records int) func(*conn) error {
	turn := 0
	return func(c *conn) error {
		var idxs [maxFrameOps]uint32
		for i := 0; i < c.mix.frameOps; i++ {
			idxs[i] = owned(c.ring[c.pos].idx, c.id, c.m.nconn, records)
			if c.pos++; c.pos == len(c.ring) {
				c.pos = 0
			}
		}
		turn++
		return c.one(turn%2 == 1, idxs[:c.mix.frameOps])
	}
}

// tail is the durability check: rounds of {fresh PUTs, SYNC, CRASH} and
// then a read-back of every key the model has ever held. It returns each
// CRASH round trip in milliseconds.
func (r *serverRun) tail() ([]float64, error) {
	var crashes []float64
	for round := 0; round < r.ph.rounds; round++ {
		idxs := make([]uint32, 0, r.ph.puts)
		for len(idxs) < r.ph.puts && r.m.inserted[0] < r.m.freshCap {
			idxs = append(idxs, r.m.freshIndex(0, r.m.inserted[0]))
			r.m.inserted[0]++
		}
		if err := r.admin.frames(false, idxs, 8); err != nil {
			return nil, fmt.Errorf("tail puts: %w", err)
		}
		if _, err := r.ctl.expectOK("SYNC"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := r.ctl.expectOK("CRASH"); err != nil {
			return nil, err
		}
		crashes = append(crashes, float64(time.Since(t0))/1e6)
	}
	// Every acknowledged write was synced before the crash, so the store
	// must now equal the model exactly: live keys at their version, deleted
	// keys absent.
	var all []uint32
	for idx, v := range r.m.ver {
		if v != 0 {
			all = append(all, uint32(idx))
		}
	}
	if err := r.admin.frames(true, all, 8); err != nil {
		return nil, fmt.Errorf("read-back: %w", err)
	}
	return crashes, nil
}

// runServerWorkload runs one server workload end to end.
func runServerWorkload(opt *options, mx *mix) (res *result, err error) {
	r := &serverRun{mix: mx, opt: opt, ph: phasesFor(opt.seconds, opt.trace, opt.quick), records: mx.records}
	if opt.quick {
		r.records = 4000
	}
	res = newResult(mx.name)
	r.res = res
	cpu, restore := oneCore()
	defer restore()
	res.note("client and server on cpu %d, one thread each (-1: the kernel refused, unpinned)", cpu)
	defer r.teardown()

	// Draw every connection's stream before anything is timed.
	z := ycsb.NewZipf(uint64(r.records), ycsb.ZipfTheta)
	rings := make([][]op, connections)
	for i := range rings {
		rings[i] = drawStream(mx, opt.seed, i, connections, r.records, opt.ringLen(), z)
	}

	var setups []float64
	for i := 0; i < r.ph.setups; i++ {
		r.teardown()
		d, err := r.setup()
		if err != nil {
			return res, fmt.Errorf("%s: setup: %w", mx.name, err)
		}
		setups = append(setups, d.Seconds())
	}
	res.e2e("setup_s", median(setups), uint64(len(setups)))

	for i := 0; i < connections; i++ {
		c, err := dialConn(r.srv.addr, i, mx, r.m, r.vs, r.epoch)
		if err != nil {
			return res, err
		}
		c.ring = rings[i]
		r.conns = append(r.conns, c)
	}

	if _, err := r.phase(r.conns, r.ph.warm, 1, (*conn).step, nil); err != nil {
		return res, fmt.Errorf("%s: warm-up: %w", mx.name, err)
	}
	if opt.trace {
		err = r.traced(res)
	} else {
		err = r.untraced(res)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", mx.name, err)
	}
	return res, nil
}

// loadedPhase runs one loaded phase bracketed by INFO snapshots.
func (r *serverRun) loadedPhase(dur time.Duration, sample func()) (rec *recorder, before, after info, err error) {
	for _, c := range r.conns {
		c.syncLat.reset()
	}
	if before, err = r.ctl.info(); err != nil {
		return nil, nil, nil, err
	}
	if rec, err = r.phase(r.conns, dur, r.ph.slices, (*conn).step, sample); err != nil {
		return nil, nil, nil, err
	}
	if after, err = r.ctl.info(); err != nil {
		return nil, nil, nil, err
	}
	return rec, before, after, nil
}

// soloPhase runs connection 0 alone, one request in flight, for dur.
func (r *serverRun) soloPhase(dur time.Duration) (*recorder, error) {
	rec, err := r.phase(r.conns[:1], dur, 1, soloStep(r.records), nil)
	if err != nil {
		return nil, fmt.Errorf("solo phase: %w", err)
	}
	return rec, nil
}

// untraced is the measured run: loaded phase, solo phase, durability tail;
// it fills every end-to-end metric. The solo phase runs half before the
// loaded phase and half after it: the host's slow stretches last up to a few
// seconds, and a low percentile over both halves survives one that swallows
// either.
func (r *serverRun) untraced(res *result) error {
	solo1, err := r.soloPhase(r.ph.solo / 2)
	if err != nil {
		return err
	}
	rec, before, after, err := r.loadedPhase(r.ph.loaded, nil)
	if err != nil {
		return fmt.Errorf("loaded phase: %w", err)
	}
	if err := r.checkBackground(before, after); err != nil {
		return err
	}
	res.e2e("ops_per_s", rec.fastOpsPerSec(), rec.totalOps())
	r.clientInfo(res, rec)

	res.e2e("space_amp", ratio(float64(after["arena.used_words"])*8, float64(r.m.liveBytes(r.vs))), 1)
	if used, capacity := after["arena.used_words"], after["arena.capacity_words"]; used*2 > capacity {
		return fmt.Errorf("arena %d of %d words used: above the 50%% sizing rule", used, capacity)
	}

	solo2, err := r.soloPhase(r.ph.solo / 2)
	if err != nil {
		return err
	}
	soloMetrics(res, mergeRecorders([]*recorder{solo1, solo2}))

	crashes, err := r.tail()
	if err != nil {
		return err
	}
	res.e2e("recovery_ms", slices.Min(crashes), uint64(len(crashes)))

	rss, err := peakRSSMB(r.srv.cmd.Process.Pid)
	if err != nil {
		return err
	}
	res.e2e("rss_mb", rss, 1)
	return nil
}

// soloMetrics reports the solo phase: the gated figure is the 10th
// percentile of the round trip, the median is printed beside it. Delay on
// this path is one-sided — the host slowing the core for a stretch — and
// how much of it a run sees varies: across runs the median moved by 8% while
// the 10th percentile stayed within 2%, so the low percentile is the one
// that can tell a slower code path from a noisier box.
func soloMetrics(res *result, solo *recorder) {
	res.quantile("solo_read_p10_us", solo, 0, 0.1)
	res.quantile("solo_write_p10_us", solo, 1, 0.1)
	for cls, name := range []string{"client.solo_read_p50_us", "client.solo_write_p50_us"} {
		if v, n, ok := solo.slices[0].lat[cls].quantile(0.5); ok {
			res.layer(name, v/1e3, n)
		}
	}
}

// checkBackground asserts that a workload with background work saw it
// complete during the loaded phase.
func (r *serverRun) checkBackground(before, after info) error {
	if r.mix.checkpoint == "" || r.opt.quick {
		return nil
	}
	d := after.delta(before)
	if d["kv.checkpoints"] == 0 || d["kv.rehash.completed"] == 0 {
		return fmt.Errorf("background work did not complete a cycle in the loaded phase: checkpoints +%d, rehashes +%d (%d before, %d zeroing, %d migrating)",
			d["kv.checkpoints"], d["kv.rehash.completed"], before["kv.rehash.completed"], after["kv.rehash.zeroing_shards"], after["kv.rehash.migrating_shards"])
	}
	return nil
}

// loadedInfo adds the loaded phase's ungated numbers: the tail latencies
// (see README, "A/A": on this box they vary more between identical runs than
// any bound the driver accepts) and the generator's view of its own run.
func loadedInfo(res *result, rec *recorder) {
	for cls, name := range []string{"client.read_p99_us", "client.write_p99_us"} {
		if ns, n, ok := rec.sliceQuantile(cls, 0.99); ok {
			res.layer(name, ns/1e3, n)
		}
	}
	all := rec.whole()
	if v, n, ok := all.quantile(0.999); ok {
		res.layer("client.p999_us", v/1e3, n)
	}
	res.layer("client.max_us", float64(all.max)/1e3, all.n)
	res.layer("client.slice_spread", quartileSpread(rec.opsPerSec()), uint64(len(rec.slices)))
	res.note("slice ops/s: %.0f", rec.opsPerSec())
}

// clientInfo is loadedInfo plus the median SYNC round trip.
func (r *serverRun) clientInfo(res *result, rec *recorder) {
	loadedInfo(res, rec)
	var syncs hist
	for _, c := range r.conns {
		syncs.merge(&c.syncLat)
	}
	if v, n, ok := syncs.quantile(0.5); ok {
		res.layer("client.sync_p50_us", v/1e3, n)
	}
}
