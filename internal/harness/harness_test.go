package harness

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/workloads"
	"crafty/internal/workloads/bank"
	"crafty/internal/workloads/btree"
	"crafty/internal/workloads/stamp"
	"crafty/internal/workloads/ycsb"
)

// quick runs a workload briefly on an engine with no emulated latency and
// fails the test on any error (including the workload's integrity check).
func quick(t *testing.T, kind EngineKind, wl workloads.Workload, threads, ops int) Result {
	t.Helper()
	res, err := Run(kind, wl, Options{
		Threads:        threads,
		OpsPerThread:   ops,
		PersistLatency: nvm.NoLatency,
		Seed:           7,
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", wl.Name(), kind, err)
	}
	if res.Ops != threads*ops || res.Throughput <= 0 {
		t.Fatalf("implausible result %+v", res)
	}
	return res
}

// allWorkloads builds one instance of every workload configuration.
func allWorkloads(threads int) []workloads.Workload {
	return []workloads.Workload{
		bank.New(bank.Config{Contention: bank.HighContention, Threads: threads}),
		bank.New(bank.Config{Contention: bank.MediumContention, Threads: threads}),
		bank.New(bank.Config{Contention: bank.NoContention, Threads: threads}),
		btree.New(btree.Config{Mix: btree.InsertOnly, InitialKeys: 256}),
		btree.New(btree.Config{Mix: btree.Mixed, InitialKeys: 256}),
		stamp.NewKMeans(true),
		stamp.NewKMeans(false),
		stamp.NewVacation(true),
		stamp.NewVacation(false),
		stamp.NewLabyrinth(),
		stamp.NewSSCA2(),
		stamp.NewGenome(),
		stamp.NewIntruder(),
	}
}

func TestEveryWorkloadOnCrafty(t *testing.T) {
	for _, wl := range allWorkloads(2) {
		wl := wl
		t.Run(wl.Name(), func(t *testing.T) {
			quick(t, Crafty, wl, 2, 150)
		})
	}
}

func TestEveryWorkloadOnEveryEngineSingleThread(t *testing.T) {
	for _, eng := range []EngineKind{NonDurable, DudeTM, NVHTM, CraftyNoRedo, CraftyNoValidate, UndoLog, RedoLog} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			for _, wl := range allWorkloads(1) {
				quick(t, eng, wl, 1, 60)
			}
		})
	}
}

func TestEveryEngineMultithreadedBank(t *testing.T) {
	for _, eng := range PaperEngines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			wl := bank.New(bank.Config{Contention: bank.HighContention, Threads: 4})
			quick(t, eng, wl, 4, 200)
		})
	}
}

func TestWritesPerTransactionMatchTable1Shape(t *testing.T) {
	// Table 1: bank = 10 writes/txn, ssca2 ~2, kmeans = 25, intruder < 3.
	cases := []struct {
		wl       workloads.Workload
		min, max float64
	}{
		{bank.New(bank.Config{Contention: bank.HighContention, Threads: 1}), 10, 10},
		{stamp.NewKMeans(true), 25, 25},
		{stamp.NewSSCA2(), 1.5, 2.0},
		{stamp.NewGenome(), 1.0, 2.2},
		{stamp.NewIntruder(), 1.5, 3.0},
		{stamp.NewLabyrinth(), 100, 260},
	}
	for _, c := range cases {
		res := quick(t, Crafty, c.wl, 1, 300)
		got := res.Stats.WritesPerTxn()
		if got < c.min || got > c.max {
			t.Errorf("%s: writes/txn = %.2f, want in [%.1f, %.1f]", c.wl.Name(), got, c.min, c.max)
		}
	}
}

// TestYCSBOverAllKVEngines is the acceptance check for the durable KV
// subsystem: YCSB-A and YCSB-B run over every engine in the KV experiment
// grid, multi-threaded, with the driver's index verification as the
// integrity check.
func TestYCSBOverAllKVEngines(t *testing.T) {
	for _, eng := range KVEngines {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			for _, mix := range []ycsb.Mix{ycsb.A, ycsb.B} {
				wl := ycsb.New(ycsb.Config{Mix: mix, Records: 512, Shards: 8, Threads: 2})
				quick(t, eng, wl, 2, 150)
			}
		})
	}
}

// TestYCSBInsertMixesMultithreaded regresses the insert-id race: workload
// D's "latest" readers chase ids whose insert transactions may not have
// committed yet, which must read as a tolerated miss, not an error.
func TestYCSBInsertMixesMultithreaded(t *testing.T) {
	for _, mix := range []ycsb.Mix{ycsb.D, ycsb.E} {
		wl := ycsb.New(ycsb.Config{Mix: mix, Records: 512, Shards: 8, Threads: 8})
		quick(t, Crafty, wl, 8, 250)
	}
}

func TestEngineKindRoundTrip(t *testing.T) {
	for k := NonDurable; k <= RedoLog; k++ {
		parsed, err := ParseEngine(k.String())
		if err != nil || parsed != k {
			t.Fatalf("ParseEngine(%q) = %v, %v", k.String(), parsed, err)
		}
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("expected error for unknown engine name")
	}
}

func TestFiguresAreComplete(t *testing.T) {
	figs := Figures()
	for _, id := range []string{"fig6", "fig7", "fig8", "fig22", "fig23", "fig24", "kv", "kvfull"} {
		fig, ok := figs[id]
		if !ok {
			t.Fatalf("missing figure %s", id)
		}
		if len(fig.Workloads) == 0 || len(fig.Engines) == 0 || len(fig.Threads) == 0 {
			t.Fatalf("figure %s incompletely specified: %+v", id, fig)
		}
	}
	if figs["fig6"].Latency != 300*time.Nanosecond || figs["fig22"].Latency != 100*time.Nanosecond {
		t.Fatal("latency sensitivity figures misconfigured")
	}
}

func TestRunFigureSmall(t *testing.T) {
	fig := Figure{
		ID:        "test",
		Title:     "miniature figure",
		Workloads: []WorkloadFactory{bankFactory(bank.HighContention)},
		Engines:   []EngineKind{NonDurable, Crafty},
		Threads:   []int{1, 2},
		Latency:   nvm.NoLatency,
	}
	fr, err := RunFigure(fig, 100, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Cells) != 4 {
		t.Fatalf("expected 4 cells, got %d", len(fr.Cells))
	}
	for _, c := range fr.Cells {
		if c.Normalized <= 0 {
			t.Fatalf("cell %+v has non-positive normalized throughput", c)
		}
	}
	var table, breakdown bytes.Buffer
	fr.WriteTable(&table)
	fr.WriteBreakdowns(&breakdown)
	if !strings.Contains(table.String(), "bank/high") || !strings.Contains(breakdown.String(), "commit=") {
		t.Fatalf("report rendering incomplete:\n%s\n%s", table.String(), breakdown.String())
	}
}

func TestTable1(t *testing.T) {
	rows, err := RunTable1(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("Table 1 has %d rows, want 14", len(rows))
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	for _, label := range []string{"bank/high", "ycsb/a"} {
		if !strings.Contains(buf.String(), label) {
			t.Fatalf("Table 1 rendering missing %s", label)
		}
	}
}

func TestCraftyBreakdownCategoriesAppear(t *testing.T) {
	run := func() ptm.Stats {
		wl := bank.New(bank.Config{Contention: bank.HighContention, Threads: 4})
		return quick(t, Crafty, wl, 4, 400).Stats
	}
	s := run()
	if s.Persistent[ptm.OutcomeRedo] == 0 {
		t.Error("no Redo-committed transactions recorded")
	}
	if s.HTM.Commits == 0 || s.HTM.Total() < s.HTM.Commits {
		t.Errorf("implausible hardware transaction stats: %+v", s.HTM)
	}
	// On one processor the workers run one at a time and nothing commits
	// between a transaction's Log and Redo phases, so Validate appears only
	// where they run in parallel (core's own tests reach it on one
	// processor through a test seam this package cannot set). A loaded host
	// can still serialize one short run, so look for a while.
	if runtime.GOMAXPROCS(0) == 1 {
		return
	}
	for deadline := time.Now().Add(10 * time.Second); s.Persistent[ptm.OutcomeValidate] == 0; s = run() {
		if time.Now().After(deadline) {
			t.Fatal("no Validate-committed transactions recorded under high contention in 10 s")
		}
	}
}
