package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"maps"
	"runtime"
	"slices"
	"time"

	"crafty"
	"crafty/internal/harness"
	"crafty/internal/kv"
	"crafty/internal/kvclient"
	"crafty/internal/nvm"
	"crafty/internal/wire"
)

// spanCap bounds each recording goroutine's span buffer; beyond it spans
// are counted as dropped, so a trace file stays a few tens of megabytes.
const spanCap = 1 << 16

// sink is an in-memory connection end that collects what is written.
type sink struct{ bytes.Buffer }

func (*sink) Close() error { return nil }

// dominantWrite names the request the layer ladder explains: the workload's
// most common one. For the batched workload that is the 16-op MPUT frame,
// for the others a single GET.
func (m *mix) dominantWrite() bool { return m.frameOps > 1 }

func (r *serverRun) userBytes() (n uint64) {
	for _, c := range r.conns {
		n += c.userBytes
	}
	return n
}

// traced is the separate traced run: an untraced and a traced loaded phase
// on one server (their ratio is the tracing overhead; the counter deltas
// cover both), a traced solo phase, one durability round, and then — with
// the server stopped — the in-process replay and the engine ladder. It fills
// every per-layer metric; end-to-end metrics never come from here.
func (r *serverRun) traced(res *result) error {
	userBytes0 := r.userBytes()
	plain, before, _, err := r.loadedPhase(r.ph.loaded, nil)
	if err != nil {
		return fmt.Errorf("loaded phase: %w", err)
	}
	r.clientInfo(res, plain)

	tracks := map[string]*tracer{}
	for _, c := range r.conns {
		c.tr = newTracer(spanCap)
		tracks[fmt.Sprintf("conn%d", c.id)] = c.tr
	}
	var depthMax int64
	var sampleErr error
	sample := func() {
		snap, err := r.ctl.info()
		if err != nil {
			sampleErr = err
			return
		}
		for w := 0; w < serverPool; w++ {
			depthMax = max(depthMax, snap[fmt.Sprintf("sched.worker%d.queue_depth", w)])
		}
	}
	traced, _, after, err := r.loadedPhase(r.ph.traced, sample)
	if err == nil {
		err = sampleErr
	}
	if err != nil {
		return fmt.Errorf("traced loaded phase: %w", err)
	}
	if err := r.checkBackground(before, after); err != nil {
		return err
	}
	ops := float64(plain.totalOps() + traced.totalOps())
	counterMetrics(res, after.delta(before), ops, float64(r.userBytes()-userBytes0))
	arenaMetrics(res, after)
	res.layer("sched.queue_depth_max", float64(depthMax), uint64(r.ph.slices))
	res.layer("trace.overhead_ratio", ratio(plain.fastOpsPerSec(), traced.fastOpsPerSec()), uint64(r.ph.slices))

	solo, err := r.soloPhase(r.ph.solo)
	if err != nil {
		return err
	}
	cls := 0
	if r.mix.dominantWrite() {
		cls = 1
	}
	rtt, n, ok := solo.slices[0].lat[cls].quantile(0.5)
	if !ok {
		return fmt.Errorf("solo phase: only %d round trips", n)
	}
	res.layer("server.solo_rtt_ns", rtt, n)
	for _, c := range r.conns {
		c.tr = nil
	}

	ltr := newTracer(spanCap)
	tracks["ladder"] = ltr
	l := newLadder(ltr)
	if err := r.clientLibrary(res, l); err != nil {
		return err
	}

	preTail, err := r.ctl.info()
	if err != nil {
		return err
	}
	if _, err := r.tail(); err != nil {
		return err
	}
	postTail, err := r.ctl.info()
	if err != nil {
		return err
	}
	d := postTail.delta(preTail)
	res.layer("server.recovery_mean_ns", ratio(float64(d["srv.recovery_ns.sum"]), float64(d["srv.recovery_ns.count"])),
		uint64(d["srv.recovery_ns.count"]))

	// The rest runs in this process; stop the server so it has the box.
	ring := r.conns[0].ring
	r.teardown()

	rep, err := r.replay(res, l, ring, r.ph.ladder/2)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	echo, n, err := echoRTT(l, rep.reqBytes, rep.repBytes, r.ph.ladder/8)
	if err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	res.layer("net.echo_ns", echo, n)
	res.layer("server.residual_ns", rtt-echo-rep.decode-rep.apply-rep.encode, 1)
	if err := engineRungs(res, l, nvm.NoLatency, true, r.ph.ladder/4); err != nil {
		return fmt.Errorf("engine ladder: %w", err)
	}
	res.note("ladder: solo_rtt %.0f = echo %.0f + wire.decode %.0f + kv %.0f + wire.encode %.0f + server.residual %.0f ns",
		rtt, echo, rep.decode, rep.apply, rep.encode, rtt-echo-rep.decode-rep.apply-rep.encode)
	return finishTrace(r.opt, res, r.mix.name, tracks)
}

// finishTrace writes the trace file and the numbers about the instrument
// itself.
func finishTrace(opt *options, res *result, workload string, tracks map[string]*tracer) error {
	dropped := 0
	for name, t := range tracks {
		dropped += t.dropped
		// A span's self time is its duration minus what its children cover.
		self, count := t.selfTimes()
		for _, span := range slices.Sorted(maps.Keys(self)) {
			res.note("trace %s: %-16s mean self time %8.0f ns over %d spans", name, span, float64(self[span])/float64(count[span]), count[span])
		}
	}
	res.layer("client.dropped_spans", float64(dropped), 1)
	res.layer("client.sleep_overshoot_us", opt.env["sleep_overshoot_us"].(float64), 51)
	path, err := writeTrace(opt.outDir, workload, opt.env, tracks)
	if err != nil {
		return err
	}
	res.note("trace written to %s", path)
	return nil
}

// clientLibrary measures what internal/kvclient adds to a round trip: its
// Get against the raw wire round trip of the same key, both in binary mode
// against the live server.
func (r *serverRun) clientLibrary(res *result, l *ladder) error {
	raw, err := dialConn(r.srv.addr, 0, adminMix, r.m, r.vs, r.epoch)
	if err != nil {
		return err
	}
	defer raw.close()
	raw.all = true
	cl, err := kvclient.Dial(r.srv.addr, kvclient.Config{Binary: true})
	if err != nil {
		return err
	}
	defer cl.Close()
	idx := uint32(0)
	key := string(appendKey(nil, idx))
	var firstErr error
	rawNs, _ := l.measure("wire.get", r.ph.solo/8, func() {
		raw.exp = raw.exp[:0]
		raw.encodeSingle(op{kind: opGet, idx: idx})
		if err := raw.exchange(raw.now()); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	libNs, n := l.measure("kvclient.get", r.ph.solo/8, func() {
		val, ok, err := cl.Get(key)
		if err == nil {
			if _, good := r.vs.check(idx, []byte(val)); !ok || !good {
				err = fmt.Errorf("kvclient.Get(%s) = %q, %t", key, val, ok)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	})
	res.Attempted += raw.attempted + n
	res.Failed += raw.failed
	if firstErr != nil {
		res.Failed++
		res.Failures = append(res.Failures, firstErr.Error())
	}
	res.layer("kvclient.added_ns", libNs-rawNs, n)
	res.note("kvclient.Get %.0f ns, raw wire GET %.0f ns", libNs, rawNs)
	return nil
}

// replayed is what the in-process replay found for the dominant request.
type replayed struct {
	decode, apply, encode float64 // ns, median, net of the clock
	reqBytes, repBytes    int
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// allocsPer is the heap allocations one call of fn makes, averaged over n
// calls after one warm-up call.
func allocsPer(n int, fn func()) float64 {
	fn()
	m0 := mallocs()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(mallocs()-m0) / float64(n)
}

// replay pushes the workload's own generated request stream through each
// importable layer in this process — wire decode, kv apply on a store built
// and preloaded as the server builds its own, wire encode — with one span
// per call, and then times Get, Put and a 16-op Apply on their own. The text
// workload has no importable codec (its tokenizer and renderer live in the
// server's package main), so its decode and encode rungs are 0 and that time
// stays in server.residual_ns.
func (r *serverRun) replay(res *result, l *ladder, ring []op, dur time.Duration) (replayed, error) {
	var out replayed
	heap := crafty.NewHeap(crafty.HeapConfig{Words: serverHeapWords, PersistLatency: crafty.NoLatency, TrackPersistence: true})
	eng, err := crafty.New(heap, crafty.Config{ArenaWords: serverArenaWords})
	if err != nil {
		return out, err
	}
	defer eng.Close()
	th := eng.Register()
	store, err := crafty.NewKV(eng, th, crafty.KVConfig{Shards: 64, InitialSlotsPerShard: 256})
	if err != nil {
		return out, err
	}

	// A fresh model and an in-memory connection generate the same bytes the
	// measured connections sent: preload first, then the stream.
	m := newModel(r.records, connections, freshCap)
	vs := newValueSpace(r.opt.seed, r.mix.variable)
	buf := &sink{}
	c := newConn(buf, 0, r.mix, m, vs, time.Now())
	c.ring = ring
	c.enc = wire.NewEncoder(c.bw) // the text workload's preload is binary too

	var ops []kv.Op
	var results []kv.OpResult
	var dst []byte
	apply := func() error {
		results, dst, _ = store.Apply(th, ops, results, dst[:0])
		for i := range results {
			if results[i].Err != nil {
				return results[i].Err
			}
		}
		return nil
	}
	idxs := make([]uint32, 0, maxFrameOps)
	for idx := 0; idx < r.records; idx += maxFrameOps {
		idxs = idxs[:0]
		for i := idx; i < min(idx+maxFrameOps, r.records); i++ {
			idxs = append(idxs, uint32(i))
		}
		c.encodeFrame(false, idxs)
		ops = append(ops[:0], c.ops...)
		if err := apply(); err != nil {
			return out, fmt.Errorf("preload: %w", err)
		}
	}
	c.bw.Flush()
	buf.Reset()

	const requests = 2048
	starts := make([]int, 0, requests+1)
	for i := 0; i < requests; i++ {
		c.bw.Flush()
		starts = append(starts, buf.Len())
		c.exp = c.exp[:0]
		c.encodeRequest()
	}
	c.bw.Flush()
	starts = append(starts, buf.Len())
	stream := buf.Bytes()

	var hDec, hApply, hEnc hist
	sinkW := bufio.NewWriterSize(io.Discard, 64<<10)
	enc := wire.NewEncoder(sinkW)
	rd := bytes.NewReader(stream)
	br := bufio.NewReaderSize(rd, 64<<10)
	fr := wire.NewReader(br, 0)
	now := func() int64 { return int64(time.Since(l.epoch)) }
	deadline := time.Now().Add(dur / 2)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		rd.Reset(stream)
		br.Reset(rd)
		for i := 0; i < requests; i++ {
			var typ wire.Type
			t0 := now()
			if r.mix.text {
				line := bytes.Fields(stream[starts[i]:starts[i+1]])
				ops = append(ops[:0], kv.Op{Kind: kv.OpGet, Key: line[1]})
				typ = wire.TGet
				switch string(line[0]) {
				case "PUT":
					ops[0].Kind, ops[0].Value, typ = kv.OpPut, line[2], wire.TPut
				case "DEL":
					ops[0].Kind, typ = kv.OpDelete, wire.TDel
				}
				t0 = now()
			} else {
				var payload []byte
				if typ, payload, err = fr.Next(); err == nil {
					ops, err = wire.DecodeRequest(typ, payload, ops[:0])
				}
				if err != nil {
					return out, err
				}
			}
			t1 := now()
			if err := apply(); err != nil {
				return out, err
			}
			t2 := now()
			if !r.mix.text {
				renderReplies(enc, typ, results)
			}
			t3 := now()
			if pass == 0 && i < spansPerRung {
				l.req++
				p := l.tr.add("replay.req", t0, t3, -1, l.req)
				l.tr.add("wire.decode", t0, t1, p, l.req)
				l.tr.add("kv.apply", t1, t2, p, l.req)
				l.tr.add("wire.encode", t2, t3, p, l.req)
			}
			if dominant := typ == wire.TGet && !r.mix.dominantWrite() || typ == wire.TMPut; dominant {
				hDec.record(t1 - t0)
				hApply.record(t2 - t1)
				hEnc.record(t3 - t2)
				if out.reqBytes == 0 {
					out.reqBytes = starts[i+1] - starts[i]
					out.repBytes = replySize(r.mix.text, typ, results)
				}
			}
		}
	}
	net := func(h *hist) (float64, uint64) {
		v, n, _ := h.quantile(0.5)
		return max(v-l.clock, 0), n
	}
	var n uint64
	out.apply, n = net(&hApply)
	if !r.mix.text {
		out.decode, _ = net(&hDec)
		out.encode, _ = net(&hEnc)
	}
	res.layer("wire.decode_ns", out.decode, n)
	res.layer("wire.encode_ns", out.encode, n)
	res.layer("kv.request_ns", out.apply, n)

	// Single calls on owned keys, same-size values.
	var x uint64
	var key, val []byte
	pick := func() uint32 {
		x = splitmix64(x)
		return uint32(x % uint64(r.records))
	}
	var callErr error
	note := func(err error) {
		if err != nil && callErr == nil {
			callErr = err
		}
	}
	get := func() {
		key = appendKey(key[:0], pick())
		var err error
		dst, _, err = store.Get(th, key, dst[:0])
		note(err)
	}
	put := func() {
		idx := pick()
		key = appendKey(key[:0], idx)
		val = vs.append(val[:0], idx, 1)
		note(store.Put(th, key, val))
	}
	apply16 := func() {
		for idxs = idxs[:0]; len(idxs) < maxFrameOps; {
			idxs = append(idxs, pick())
		}
		c.encodeFrame(false, idxs)
		ops = append(ops[:0], c.ops...)
		note(apply())
	}
	each := dur / 6
	getNs, n := l.measure("kv.get", each, get)
	res.layer("kv.get_ns", getNs, n)
	putNs, n := l.measure("kv.put", each, put)
	res.layer("kv.put_ns", putNs, n)
	applyNs, n := l.measure("kv.apply16", each, apply16)
	res.layer("kv.apply16_ns_per_op", applyNs/maxFrameOps, n)
	res.layer("kv.get_allocs", allocsPer(2000, get), 2000)
	res.layer("kv.apply_allocs", allocsPer(500, apply16)/maxFrameOps, 500)
	decodeAllocs := 0.0
	if !r.mix.text {
		rd.Reset(stream)
		br.Reset(rd)
		m0 := mallocs()
		for i := 0; i < requests; i++ {
			typ, payload, err := fr.Next()
			if err == nil {
				ops, err = wire.DecodeRequest(typ, payload, ops[:0])
			}
			note(err)
		}
		decodeAllocs = float64(mallocs()-m0) / requests
	}
	res.layer("wire.decode_allocs", decodeAllocs, requests)
	return out, callErr
}

// replySize is the byte length of a request's replies on the wire.
func replySize(text bool, typ wire.Type, results []kv.OpResult) int {
	if text {
		return len("VAL \n") + len(results[0].Value)
	}
	w := &sink{}
	bw := bufio.NewWriter(w)
	renderReplies(wire.NewEncoder(bw), typ, results)
	bw.Flush()
	return w.Len()
}

// renderReplies encodes a request's replies the way the server's binary
// renderer does: one frame per result, or one count for an MPUT.
func renderReplies(enc *wire.Encoder, typ wire.Type, results []kv.OpResult) {
	if typ == wire.TMPut {
		enc.Uint(uint64(len(results)))
		return
	}
	for i := range results {
		switch {
		case typ == wire.TPut:
			enc.OK()
		case !results[i].Found:
			enc.Nil()
		case typ == wire.TGet || typ == wire.TMGet:
			enc.Val(results[i].Value)
		default:
			enc.OK()
		}
	}
}

// engineTraced is engine-bank's traced run: a traced loaded phase against an
// untraced one, the engine's own counters per transaction, the paper's
// normalised axis (Crafty against the non-durable and NV-HTM engines on the
// same configuration), and the engine ladder at the paper's persist latency.
func engineTraced(opt *options, ph phases, b *bankRun, workers []*bankWorker, res *result) error {
	before := b.snapshot()
	plain := b.phase(workers, ph.loaded, ph.slices, (*bankWorker).step)
	tracks := map[string]*tracer{}
	for _, w := range workers {
		w.tr = newTracer(spanCap)
		tracks[fmt.Sprintf("worker%d", w.id)] = w.tr
	}
	traced := b.phase(workers, ph.traced, ph.slices, (*bankWorker).step)
	after := b.snapshot()
	for _, w := range workers {
		w.tr = nil
	}
	txns := float64(plain.totalOps() + traced.totalOps())
	// A transfer writes ten 8-byte balances; audits write nothing.
	userBytes := txns * (auditEvery - 1) / auditEvery * 10 * 8
	counterMetrics(res, after.delta(before), txns, userBytes)
	craftyRate := plain.fastOpsPerSec()
	res.layer("trace.overhead_ratio", ratio(craftyRate, traced.fastOpsPerSec()), uint64(ph.slices))
	loadedInfo(res, plain)

	for _, other := range []struct {
		kind harness.EngineKind
		name string
	}{{harness.NonDurable, "core.norm_vs_nondurable"}, {harness.NVHTM, "core.norm_vs_nvhtm"}} {
		ob, err := newBankRun(other.kind, opt.nproc, engineLatency, false)
		if err != nil {
			return err
		}
		ows := ob.workers(opt.seed)
		ob.phase(ows, ph.warm/2, 1, (*bankWorker).step)
		rec := ob.phase(ows, ph.solo, ph.slices, (*bankWorker).step)
		ob.settle(res, ows)
		ob.eng.Close()
		res.layer(other.name, ratio(craftyRate, rec.fastOpsPerSec()), uint64(ph.slices))
	}

	ltr := newTracer(spanCap)
	tracks["ladder"] = ltr
	if err := engineRungs(res, newLadder(ltr), engineLatency, false, ph.ladder); err != nil {
		return err
	}
	return finishTrace(opt, res, engineWorkload, tracks)
}
