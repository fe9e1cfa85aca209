// Wire protocol bench smoke: many pipelined connections driving the same
// logical read-heavy workload over the binary protocol and over the text
// protocol, logging ops/s and allocs/op per protocol and the binary/text
// speedup, and failing when serving a one-op request allocates. Gated on
// WIRE_SMOKE=1 (CI runs it). Throughput claims come from bench/run.sh
// (read-single, write-batch), not from this log.
package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

type wireProtoResult struct {
	Ops         int     `json:"ops"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type wireBenchResult struct {
	Conns      int `json:"conns"`
	Depth      int `json:"batch"`
	ValueBytes int `json:"value_bytes"`

	// Text: the batch is `depth` pipelined single-key GET lines per flush.
	// Binary: the batch is one multi-op TMGet frame carrying `depth` keys.
	// BinaryPipelined: `depth` single TGet frames per flush — the
	// like-for-like twin of the text driver, isolating pure framing cost.
	Text            wireProtoResult `json:"text"`
	Binary          wireProtoResult `json:"binary"`
	BinaryPipelined wireProtoResult `json:"binary_pipelined"`

	Speedup float64 `json:"binary_over_text_ops"`
}

// Each driver runs the same logical workload — `batches` rounds of `depth`
// single-key GETs over a per-connection key range, one round trip per round —
// in its protocol's natural batch encoding. GETs are the protocol-bound case
// (a GET is one engine lookup; a PUT is a full durable transaction that
// drowns framing costs), and all drivers are allocation-lean so the
// comparison measures the protocols, not sloppy clients. The binary batched
// driver is the framing the protocol exists for: one frame = one scheduler
// request = one Store.Apply group for all `depth` ops, where the text driver
// pays the per-request scheduler machinery `depth` times per round trip.
func dialBinBench(addr string) (net.Conn, *wire.Encoder, *wire.Reader, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	w := bufio.NewWriter(conn)
	enc := wire.NewEncoder(w)
	if err := enc.Handshake(wire.Version); err != nil {
		return nil, nil, nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, nil, nil, err
	}
	br := bufio.NewReader(conn)
	var hs [wire.HandshakeLen]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		return nil, nil, nil, err
	}
	if _, err := wire.ParseHandshake(hs[:]); err != nil {
		return nil, nil, nil, err
	}
	return conn, enc, wire.NewReader(br, 0), nil
}

func benchKeys(id, depth int) []kv.Op {
	keys := make([]kv.Op, depth)
	for i := range keys {
		keys[i] = kv.Op{Kind: kv.OpGet, Key: fmt.Appendf(nil, "bench-%03d-%04d", id, i)}
	}
	return keys
}

func wireBenchConnBinary(addr string, id, batches, depth int, batched bool) error {
	conn, enc, rd, err := dialBinBench(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	keys := benchKeys(id, depth)
	for b := 0; b < batches; b++ {
		if batched {
			enc.Ops(wire.TMGet, keys)
		} else {
			for i := 0; i < depth; i++ {
				enc.Get(keys[i].Key)
			}
		}
		if err := enc.Flush(); err != nil {
			return err
		}
		for i := 0; i < depth; i++ {
			typ, _, err := rd.Next()
			if err != nil {
				return err
			}
			if typ != wire.TVal {
				return fmt.Errorf("conn %d batch %d: reply %v, want TVal", id, b, typ)
			}
		}
	}
	return nil
}

func wireBenchConnText(addr string, id, batches, depth int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	br := bufio.NewReaderSize(conn, 1<<16)
	keys := benchKeys(id, depth)
	for b := 0; b < batches; b++ {
		for i := 0; i < depth; i++ {
			w.WriteString("GET ")
			w.Write(keys[i].Key)
			w.WriteByte('\n')
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for i := 0; i < depth; i++ {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return err
			}
			if !bytes.HasPrefix(line, []byte("VAL ")) {
				return fmt.Errorf("conn %d batch %d: %q, want VAL", id, b, line)
			}
		}
	}
	return nil
}

// wirePopulate PUTs every key all drivers will GET, over one pipelined text
// connection, off the clock.
func wirePopulate(addr string, conns, depth int, value []byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	w := bufio.NewWriter(conn)
	br := bufio.NewReaderSize(conn, 1<<16)
	for id := 0; id < conns; id++ {
		for _, key := range benchKeys(id, depth) {
			w.WriteString("PUT ")
			w.Write(key.Key)
			w.WriteByte(' ')
			w.Write(value)
			w.WriteByte('\n')
		}
		if err := w.Flush(); err != nil {
			return err
		}
		for i := 0; i < depth; i++ {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return err
			}
			if !bytes.HasPrefix(line, []byte("OK")) {
				return fmt.Errorf("populate: %q", line)
			}
		}
	}
	return nil
}

type wireBenchMode int

const (
	benchText wireBenchMode = iota
	benchBinary
	benchBinaryPipelined
)

func runWireBench(t *testing.T, mode wireBenchMode, conns, batches, depth int, value []byte) wireProtoResult {
	t.Helper()
	addr := startServer(t)
	if err := wirePopulate(addr, conns, depth, value); err != nil {
		t.Fatal(err)
	}
	drive := func(id int) error {
		switch mode {
		case benchText:
			return wireBenchConnText(addr, id, batches, depth)
		case benchBinary:
			return wireBenchConnBinary(addr, id, batches, depth, true)
		default:
			return wireBenchConnBinary(addr, id, batches, depth, false)
		}
	}
	// Warm the server's pools and the connection path off the clock.
	if err := drive(0); err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for id := 0; id < conns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := drive(id); err != nil {
				errs <- err
			}
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ops := conns * batches * depth
	return wireProtoResult{
		Ops:         ops,
		ElapsedSec:  elapsed.Seconds(),
		OpsPerSec:   float64(ops) / elapsed.Seconds(),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}
}

func TestWireBenchSmoke(t *testing.T) {
	if os.Getenv("WIRE_SMOKE") == "" {
		t.Skip("set WIRE_SMOKE=1 to run the wire bench smoke")
	}

	const (
		conns   = 128
		depth   = 16
		valueSz = 16
	)
	batches := 256
	if s := os.Getenv("WIRE_BENCH_BATCHES"); s != "" {
		fmt.Sscanf(s, "%d", &batches)
	}
	value := bytes.Repeat([]byte("v"), valueSz)

	// Each mode gets a fresh server so store sizes and pool warmth are
	// symmetric.
	text := runWireBench(t, benchText, conns, batches, depth, value)
	bin := runWireBench(t, benchBinary, conns, batches, depth, value)
	binPipe := runWireBench(t, benchBinaryPipelined, conns, batches, depth, value)

	res := wireBenchResult{
		Conns:           conns,
		Depth:           depth,
		ValueBytes:      valueSz,
		Text:            text,
		Binary:          bin,
		BinaryPipelined: binPipe,
		Speedup:         bin.OpsPerSec / text.OpsPerSec,
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wire bench: %s", out)
	// One-op requests are where a per-request allocation shows undiluted: the
	// connection loop serves them from pooled requests and one completion
	// counter per connection, so the whole process (drivers included) stays
	// well under 0.1 allocations per op. One channel or closure per request
	// is 1.0.
	for name, r := range map[string]wireProtoResult{"text": text, "binary_pipelined": binPipe} {
		if r.AllocsPerOp >= 0.5 {
			t.Errorf("%s: %.2f allocs/op, want < 0.5 — serving a request allocates again", name, r.AllocsPerOp)
		}
	}
}
