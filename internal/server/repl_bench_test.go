// Replication bench smoke: a primary/replica pair in one process under a
// sustained write load, logging stream throughput and lag numbers and
// failing unless the stream completes and a replicated SYNC fences. Gated on
// REPL_SMOKE=1 (CI runs it).
package server

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"crafty/internal/kvclient"
)

type replBenchResult struct {
	Ops               int     `json:"ops"`
	ValueBytes        int     `json:"value_bytes"`
	ElapsedSec        float64 `json:"elapsed_sec"`
	PutsPerSec        float64 `json:"puts_per_sec"`
	MaxLagGroups      uint64  `json:"max_lag_groups"`
	SyncFenceSec      float64 `json:"sync_fence_sec"`
	Groups            uint64  `json:"groups"`
	ReplicaAppliedSeq uint64  `json:"replica_applied_seq"`
	SyncWaits         uint64  `json:"sync_waits"`
	ReplicaReconnects uint64  `json:"replica_reconnects"`
	ClientRetries     int     `json:"client_retries"`
}

func TestReplBenchSmoke(t *testing.T) {
	if os.Getenv("REPL_SMOKE") == "" {
		t.Skip("set REPL_SMOKE=1 to run the replication bench smoke")
	}

	pcfg := replCfg()
	pcfg.ReplListen = "auto"
	pcfg.ReplSync = true
	pcfg.ReplSyncTimeout = 30 * time.Second
	p := startReplNode(t, pcfg)

	rcfg := replCfg()
	rcfg.ReplicaOf = p.replAddr
	r := startReplNode(t, rcfg)
	waitFor(t, 10*time.Second, "replica attach", func() bool {
		return p.srv.repl.getPrimary().Replicas() == 1
	})

	cl, err := kvclient.Dial(p.addr, kvclient.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const ops = 2000
	value := strings.Repeat("v", 64)
	var maxLag uint64
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := cl.Put(fmt.Sprintf("bench-%04d", i), value); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if i%100 == 0 {
			if lag := p.srv.repl.getPrimary().Lag(); lag > maxLag {
				maxLag = lag
			}
		}
	}
	elapsed := time.Since(start)

	// SYNC under -repl-sync: returns only once the replica has durably
	// acknowledged everything the barrier covers. Its latency is the
	// replicated fence cost.
	fenceStart := time.Now()
	if err := cl.Sync(); err != nil {
		t.Fatalf("replicated sync: %v", err)
	}
	fence := time.Since(fenceStart)

	res := replBenchResult{
		Ops:               ops,
		ValueBytes:        len(value),
		ElapsedSec:        elapsed.Seconds(),
		PutsPerSec:        float64(ops) / elapsed.Seconds(),
		MaxLagGroups:      maxLag,
		SyncFenceSec:      fence.Seconds(),
		Groups:            p.srv.repl.log.LastSeq(),
		ReplicaAppliedSeq: r.srv.repl.getReplica().AppliedSeq(),
		SyncWaits:         p.srv.obs.replSyncWaits.Value(),
		ReplicaReconnects: r.srv.repl.getReplica().Reconnects(),
		ClientRetries:     cl.Retries(),
	}
	if res.SyncWaits < 1 {
		t.Fatalf("replicated SYNC did not fence (sync_waits=%d)", res.SyncWaits)
	}
	if res.ReplicaAppliedSeq < res.Groups {
		t.Fatalf("replica behind after fenced sync: applied=%d groups=%d",
			res.ReplicaAppliedSeq, res.Groups)
	}

	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("repl bench: %s", out)
}
