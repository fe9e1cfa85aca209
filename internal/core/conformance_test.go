package core

import (
	"testing"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/ptmtest"
)

// The engine-neutral conformance suite (including the AtomicRead contract)
// over Crafty and its ablation variants; together with the baseline engine
// packages this covers all eight engines.

func conformanceFactory(cfg Config) ptmtest.Factory {
	return func(heap *nvm.Heap, arenaWords int) (ptm.Engine, error) {
		cfg.LogEntries = 1 << 12
		cfg.ArenaWords = arenaWords
		return NewEngine(heap, cfg)
	}
}

func TestConformanceCrafty(t *testing.T) {
	ptmtest.Run(t, conformanceFactory(Config{}))
}

func TestConformanceCraftyNoRedo(t *testing.T) {
	ptmtest.Run(t, conformanceFactory(Config{DisableRedo: true}))
}

func TestConformanceCraftyNoValidate(t *testing.T) {
	ptmtest.Run(t, conformanceFactory(Config{DisableValidate: true}))
}
