// Benchmarks that regenerate each table and figure of the Crafty paper's
// evaluation in miniature. Each benchmark drives the same harness the
// craftybench command uses; the command regenerates the full grids (all six
// engine configurations at the paper's seven thread counts), while these
// testing.B entry points provide quick, repeatable per-figure measurements.
// The interesting output is the reported ops/s (and the derived normalized
// ratios discussed in EXPERIMENTS.md), not ns/op.
package crafty_test

import (
	"fmt"
	"testing"
	"time"

	"crafty/internal/harness"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/workloads"
	"crafty/internal/workloads/bank"
	"crafty/internal/workloads/btree"
	"crafty/internal/workloads/stamp"
)

// benchThreads is the thread count used by the figure benchmarks; the full
// thread axis is exercised by cmd/craftybench.
const benchThreads = 4

// runWorkload measures b.N operations of wl on the given engine and reports
// throughput.
func runWorkload(b *testing.B, kind harness.EngineKind, wl workloads.Workload, threads int, latency time.Duration) harness.Result {
	b.Helper()
	ops := b.N/threads + 1
	res, err := harness.Run(kind, wl, harness.Options{
		Threads:        threads,
		OpsPerThread:   ops,
		PersistLatency: latency,
		Seed:           1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Throughput, "ops/s")
	return res
}

// benchFigure runs one workload configuration across the engines a figure
// compares.
func benchFigure(b *testing.B, factories map[string]func(threads int) workloads.Workload,
	engines []harness.EngineKind, latency time.Duration) {
	b.Helper()
	for label, factory := range factories {
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", label, eng), func(b *testing.B) {
				runWorkload(b, eng, factory(benchThreads), benchThreads, latency)
			})
		}
	}
}

var mainEngines = []harness.EngineKind{harness.NonDurable, harness.NVHTM, harness.Crafty}
var quickEngines = []harness.EngineKind{harness.NonDurable, harness.Crafty}

// BenchmarkFig6Bank regenerates Figure 6: the bank microbenchmark at three
// contention levels, 300 ns persist latency.
func BenchmarkFig6Bank(b *testing.B) {
	benchFigure(b, map[string]func(int) workloads.Workload{
		"high": func(t int) workloads.Workload {
			return bank.New(bank.Config{Contention: bank.HighContention, Threads: t})
		},
		"medium": func(t int) workloads.Workload {
			return bank.New(bank.Config{Contention: bank.MediumContention, Threads: t})
		},
		"none": func(t int) workloads.Workload {
			return bank.New(bank.Config{Contention: bank.NoContention, Threads: t})
		},
	}, mainEngines, 300*time.Nanosecond)
}

// BenchmarkFig7BTree regenerates Figure 7: the B+ tree microbenchmark.
func BenchmarkFig7BTree(b *testing.B) {
	benchFigure(b, map[string]func(int) workloads.Workload{
		"insert": func(int) workloads.Workload { return btree.New(btree.Config{Mix: btree.InsertOnly, InitialKeys: 1024}) },
		"mixed":  func(int) workloads.Workload { return btree.New(btree.Config{Mix: btree.Mixed, InitialKeys: 1024}) },
	}, mainEngines, 300*time.Nanosecond)
}

// BenchmarkFig8STAMP regenerates Figure 8: the STAMP benchmarks.
func BenchmarkFig8STAMP(b *testing.B) {
	benchFigure(b, map[string]func(int) workloads.Workload{
		"kmeans-high":   func(int) workloads.Workload { return stamp.NewKMeans(true) },
		"kmeans-low":    func(int) workloads.Workload { return stamp.NewKMeans(false) },
		"vacation-high": func(int) workloads.Workload { return stamp.NewVacation(true) },
		"vacation-low":  func(int) workloads.Workload { return stamp.NewVacation(false) },
		"labyrinth":     func(int) workloads.Workload { return stamp.NewLabyrinth() },
		"ssca2":         func(int) workloads.Workload { return stamp.NewSSCA2() },
		"genome":        func(int) workloads.Workload { return stamp.NewGenome() },
		"intruder":      func(int) workloads.Workload { return stamp.NewIntruder() },
	}, quickEngines, 300*time.Nanosecond)
}

// BenchmarkFig22BankLat100 regenerates Figure 22: the bank microbenchmark
// with the 100 ns persist-latency sensitivity setting.
func BenchmarkFig22BankLat100(b *testing.B) {
	benchFigure(b, map[string]func(int) workloads.Workload{
		"high": func(t int) workloads.Workload {
			return bank.New(bank.Config{Contention: bank.HighContention, Threads: t})
		},
		"none": func(t int) workloads.Workload {
			return bank.New(bank.Config{Contention: bank.NoContention, Threads: t})
		},
	}, mainEngines, 100*time.Nanosecond)
}

// BenchmarkFig23BTreeLat100 regenerates Figure 23 (B+ tree, 100 ns).
func BenchmarkFig23BTreeLat100(b *testing.B) {
	benchFigure(b, map[string]func(int) workloads.Workload{
		"insert": func(int) workloads.Workload { return btree.New(btree.Config{Mix: btree.InsertOnly, InitialKeys: 1024}) },
		"mixed":  func(int) workloads.Workload { return btree.New(btree.Config{Mix: btree.Mixed, InitialKeys: 1024}) },
	}, quickEngines, 100*time.Nanosecond)
}

// BenchmarkFig24STAMPLat100 regenerates Figure 24 (STAMP, 100 ns).
func BenchmarkFig24STAMPLat100(b *testing.B) {
	benchFigure(b, map[string]func(int) workloads.Workload{
		"kmeans-high":  func(int) workloads.Workload { return stamp.NewKMeans(true) },
		"vacation-low": func(int) workloads.Workload { return stamp.NewVacation(false) },
		"ssca2":        func(int) workloads.Workload { return stamp.NewSSCA2() },
		"intruder":     func(int) workloads.Workload { return stamp.NewIntruder() },
	}, quickEngines, 100*time.Nanosecond)
}

// BenchmarkTable1WritesPerTxn regenerates Table 1: the average number of
// persistent writes per transaction for each workload, reported as the
// "writes/txn" metric.
func BenchmarkTable1WritesPerTxn(b *testing.B) {
	for label, factory := range map[string]func() workloads.Workload{
		"bank-high":   func() workloads.Workload { return bank.New(bank.Config{Contention: bank.HighContention, Threads: 1}) },
		"btree-mixed": func() workloads.Workload { return btree.New(btree.Config{Mix: btree.Mixed, InitialKeys: 1024}) },
		"kmeans-high": func() workloads.Workload { return stamp.NewKMeans(true) },
		"vacation-hi": func() workloads.Workload { return stamp.NewVacation(true) },
		"labyrinth":   func() workloads.Workload { return stamp.NewLabyrinth() },
		"ssca2":       func() workloads.Workload { return stamp.NewSSCA2() },
		"genome":      func() workloads.Workload { return stamp.NewGenome() },
		"intruder":    func() workloads.Workload { return stamp.NewIntruder() },
	} {
		b.Run(label, func(b *testing.B) {
			res := runWorkload(b, harness.Crafty, factory(), 1, nvm.NoLatency)
			b.ReportMetric(res.Stats.WritesPerTxn(), "writes/txn")
		})
	}
}

// BenchmarkBreakdowns regenerates the data behind the appendix's transaction
// breakdown figures (9–21) for the bank benchmark: how persistent
// transactions completed and why hardware transactions aborted, reported as
// per-operation metrics.
func BenchmarkBreakdowns(b *testing.B) {
	for _, eng := range []harness.EngineKind{harness.Crafty, harness.CraftyNoValidate, harness.CraftyNoRedo, harness.NVHTM} {
		b.Run(eng.String(), func(b *testing.B) {
			res := runWorkload(b, eng,
				bank.New(bank.Config{Contention: bank.HighContention, Threads: benchThreads}),
				benchThreads, 300*time.Nanosecond)
			s := res.Stats
			txns := float64(s.Txns())
			if txns == 0 {
				return
			}
			b.ReportMetric(float64(s.Persistent[ptm.OutcomeRedo])/txns, "redo/txn")
			b.ReportMetric(float64(s.Persistent[ptm.OutcomeValidate])/txns, "validate/txn")
			b.ReportMetric(float64(s.Persistent[ptm.OutcomeSGL])/txns, "sgl/txn")
			b.ReportMetric(float64(s.HTM.Total())/txns, "htm-txns/txn")
			b.ReportMetric(float64(s.HTM.Aborts[1]+s.HTM.Aborts[2]+s.HTM.Aborts[3]+s.HTM.Aborts[4])/txns, "htm-aborts/txn")
		})
	}
}

// BenchmarkAblationLogging compares Crafty against the classic undo- and
// redo-logging designs from the paper's background section on the bank
// benchmark — the ablation DESIGN.md calls out for the nondestructive undo
// logging design choice.
func BenchmarkAblationLogging(b *testing.B) {
	for _, eng := range []harness.EngineKind{harness.Crafty, harness.UndoLog, harness.RedoLog, harness.NonDurable} {
		b.Run(eng.String(), func(b *testing.B) {
			runWorkload(b, eng,
				bank.New(bank.Config{Contention: bank.NoContention, Threads: 1}),
				1, 300*time.Nanosecond)
		})
	}
}
