package kv

import (
	"fmt"
	"testing"

	"crafty/internal/nvm"
)

// crashCase names one crash policy.
type crashCase struct {
	name   string
	policy nvm.CrashPolicy
}

// logFreePolicies are the crashes the frontier-block tests run under: the
// two deterministic extremes, then adversarial random persistence.
func logFreePolicies() []crashCase {
	cs := []crashCase{{"all", nvm.PersistAll{}}, {"none", nvm.PersistNone{}}}
	for seed := int64(1); seed <= 8; seed++ {
		cs = append(cs, crashCase{fmt.Sprintf("random-%d", seed), nvm.NewRandomPolicy(seed, 0.5)})
	}
	return cs
}

// reopenParanoid reopens the crashed store through the full verify and the
// exact arena reconcile, and checks that reconcile accounted every word.
func (h *ckptHarness) reopenParanoid() *Store {
	h.t.Helper()
	s, rep := h.reopen(ReopenOptions{Paranoid: true})
	if !rep.FullVerify {
		h.t.Fatalf("paranoid reopen took the bounded path: %+v", rep)
	}
	if _, err := s.Verify(h.heap); err != nil {
		h.t.Fatal(err)
	}
	checkArenaAccounting(h.t, h.eng)
	return s
}

// TestFreeListReuseStaysLogged is the side of the log-free rule that must
// not apply: a block taken back from the free lists is filled through the
// undo log. k is put and synced; then, unsynced, k is deleted and a key of
// the same size class takes k's block. An idle thread synced in between puts
// both transactions inside the crash's rollback window, so recovery restores
// k's slot and must also restore the block's words that slot points at.
func TestFreeListReuseStaysLogged(t *testing.T) {
	for _, c := range logFreePolicies() {
		t.Run(c.name, func(t *testing.T) {
			h := newCkptHarness(t, 1<<21, 4)
			idle := h.eng.Register()
			h.put("key-k", "value-of-k-000")
			h.quiesce()
			if err := idle.(interface{ SyncDurable() error }).SyncDurable(); err != nil {
				t.Fatal(err)
			}
			if _, err := h.s.Delete(h.th, []byte("key-k")); err != nil {
				t.Fatal(err)
			}
			used := h.eng.Arena().Stats().UsedWords
			h.put("key-j", "value-of-j-111")
			if got := h.eng.Arena().Stats().UsedWords; got != used {
				t.Fatalf("the reusing put carved from the frontier (%d -> %d words), not the free list", used, got)
			}

			h.crash(c.policy)
			s := h.reopenParanoid()
			h.expectAll(s, map[string]string{"key-k": "value-of-k-000", "key-j": ""})
		})
	}
}

// TestFrontierInsertCrash is the side where the rule applies: a put that
// carves its block from the arena frontier fills it log-free. As the
// thread's last transaction, unsynced, the put is rolled back and its block
// reclaimed with nothing leaked. Made permanent, by a sync or by a later
// commit on the same thread (whose hardware commit fences the put's
// flushes), the put survives with its value, although the log never named
// the block's words.
func TestFrontierInsertCrash(t *testing.T) {
	const value = "a-value-long-enough-to-fill-several-words-of-its-block"
	for _, then := range []string{"crash", "sync", "put"} {
		for _, c := range logFreePolicies() {
			t.Run(then+"/"+c.name, func(t *testing.T) {
				h := newCkptHarness(t, 1<<21, 4)
				want := map[string]string{}
				for i := 0; i < 20; i++ {
					k, v := fmt.Sprintf("pre-%02d", i), fmt.Sprintf("preloaded-value-%02d", i)
					h.put(k, v)
					want[k] = v
				}
				h.quiesce()
				used := h.eng.Arena().Stats().UsedWords
				h.put("fresh", value)
				if got := h.eng.Arena().Stats().UsedWords; got <= used {
					t.Fatalf("the put did not carve from the frontier (%d -> %d words)", used, got)
				}
				switch then {
				case "crash":
					want["fresh"] = ""
				case "sync":
					h.quiesce()
					want["fresh"] = value
				case "put":
					h.put("later", value)
					want["fresh"], want["later"] = value, ""
				}

				h.crash(c.policy)
				h.expectAll(h.reopenParanoid(), want)
			})
		}
	}
}
