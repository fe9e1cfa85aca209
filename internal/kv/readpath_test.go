package kv

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"crafty/internal/core"
	"crafty/internal/ptm"
)

// TestReadEntryPointsAgree drives the same keys through every way a value can
// leave the store — Get, a one-op Apply, a multi-op all-gets Apply, GetTx
// inside a caller's Atomic, and ScanTx — and requires identical bytes from
// each, on a shard that is IDLE, one held mid-ZEROING, and one held
// mid-MIGRATING (reads do not step a rehash, so the state stays put while
// they run). Values vary in length across word boundaries and end in a
// newline that appears nowhere else in them, so a whole-shard scan can be
// split back into values.
func TestReadEntryPointsAgree(t *testing.T) {
	keyOf := func(i int) []byte { return fmt.Appendf(nil, "key-%04d", i) }
	valOf := func(i int) []byte {
		return append(bytes.Repeat([]byte{byte('a' + i%26)}, i%19), fmt.Appendf(nil, "#%d\n", i)...)
	}

	// One shard of 256 slots: the rehash starts past 192 used slots, zeroes
	// the 1024-word pending table in four steps, then migrates 16 entries per
	// mutating operation, so both states span several puts.
	states := []struct {
		name string
		held func(pending, old uint64) bool
	}{
		{"idle", func(pending, old uint64) bool { return true }},
		{"zeroing", func(pending, old uint64) bool { return pending != 0 }},
		{"migrating", func(pending, old uint64) bool { return old != 0 }},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			s, eng, th := applyStore(t, Config{Shards: 1, InitialSlotsPerShard: 256}, core.Config{})
			t.Cleanup(func() { eng.Close() })
			hdr, heap := s.shardHeader(0), eng.Heap()
			n := 0
			put := func() {
				if err := s.Put(th, keyOf(n), valOf(n)); err != nil {
					t.Fatal(err)
				}
				n++
			}
			for n < 100 {
				put()
			}
			for !st.held(heap.Load(hdr+shPending), heap.Load(hdr+shOld)) {
				if n > 400 {
					t.Fatalf("shard never reached %s", st.name)
				}
				put()
			}
			if st.name != "idle" {
				// One more step, so a zeroing cursor or a migration cursor
				// sits strictly inside its table: some entries moved, most not.
				put()
				if !st.held(heap.Load(hdr+shPending), heap.Load(hdr+shOld)) {
					t.Fatalf("shard left %s after one more put", st.name)
				}
			}

			keys := [][]byte{[]byte("no-such-key")}
			want := [][]byte{nil}
			for i := 0; i < n; i++ {
				keys = append(keys, keyOf(i))
				want = append(want, valOf(i))
			}

			batch := make([]Op, len(keys))
			for i, k := range keys {
				batch[i] = Op{Kind: OpGet, Key: k}
			}
			multi, _, err := s.Apply(th, batch, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				check := func(entry string, got []byte, found bool, err error) {
					t.Helper()
					if err != nil || found != (want[i] != nil) || !bytes.Equal(got, want[i]) {
						t.Fatalf("%s(%q) = %q, found=%v, err=%v; want %q", entry, k, got, found, err, want[i])
					}
				}
				got, found, err := s.Get(th, k, nil)
				check("Get", got, found, err)

				one, _, err := s.Apply(th, batch[i:i+1], nil, nil)
				if err == nil {
					err = one[0].Err
				}
				check("Apply[1]", one[0].Value, one[0].Found, err)

				check("Apply[n]", multi[i].Value, multi[i].Found, multi[i].Err)

				err = th.Atomic(func(tx ptm.Tx) error {
					got, found = s.GetTx(tx, k, nil)
					return nil
				})
				check("GetTx", got, found, err)
			}

			// A scan of the whole shard returns every live value exactly once,
			// wherever its entry currently lives.
			var scanned []byte
			var seen int
			if err := th.AtomicRead(func(tx ptm.Tx) error {
				scanned, seen = s.ScanTx(tx, keys[1], n+1, nil)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if seen != n {
				t.Fatalf("ScanTx visited %d entries, want %d", seen, n)
			}
			gotVals := bytes.SplitAfter(scanned, []byte("\n"))
			gotVals = gotVals[:len(gotVals)-1] // the empty tail after the last newline
			wantVals := append([][]byte(nil), want[1:]...)
			for _, vs := range [][][]byte{gotVals, wantVals} {
				sort.Slice(vs, func(a, b int) bool { return bytes.Compare(vs[a], vs[b]) < 0 })
			}
			if len(gotVals) != len(wantVals) {
				t.Fatalf("ScanTx returned %d values, want %d", len(gotVals), len(wantVals))
			}
			for i := range wantVals {
				if !bytes.Equal(gotVals[i], wantVals[i]) {
					t.Fatalf("ScanTx value %d = %q, want %q", i, gotVals[i], wantVals[i])
				}
			}
		})
	}
}
