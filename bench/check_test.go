package main

import "testing"

// Replies are checked, not counted: a corrupted value, an error reply and an
// acknowledged write lost across a crash each show up as a failed operation.
func TestCheckerCountsEveryKindOfFailure(t *testing.T) {
	for _, mx := range serverMixes {
		c, fs := stepConn(t, mx)
		run := func(steps int) {
			t.Helper()
			for i := 0; i < steps; i++ {
				if err := c.step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		run(50)
		if c.failed != 0 {
			t.Fatalf("%s: %d failures against an honest server: %v", mx.name, c.failed, c.failures)
		}

		fs.corruptNext = true
		run(20)
		if fs.corruptNext {
			t.Fatalf("%s: no value was read in 20 bursts", mx.name)
		}
		if c.failed != 1 {
			t.Errorf("%s: a corrupted value counted as %d failures, want 1", mx.name, c.failed)
		}

		before := c.failed
		fs.errNext = true
		run(1)
		// An ERR fails every operation of the request it answers.
		if got := c.failed - before; got != 1 && got != uint64(mx.frameOps) {
			t.Errorf("%s: an ERR reply counted as %d failures", mx.name, got)
		}

		// Write a key this connection owns, let the server lose that write in
		// a crash, read it back: the stale (self-consistent, but old) value
		// must fail against the model's version.
		before = c.failed
		idx := uint32(10)
		fs.dropIdx = int(idx)
		if err := c.one(false, []uint32{idx}); err != nil {
			t.Fatal(err)
		}
		fs.crash()
		if err := c.one(true, []uint32{idx}); err != nil {
			t.Fatal(err)
		}
		if got := c.failed - before; got != 1 {
			t.Errorf("%s: a lost acknowledged write counted as %d failures, want 1: %v", mx.name, got, c.failures)
		}
		if c.failed == 0 || c.attempted == 0 || float64(c.failed)/float64(c.attempted) <= 0 {
			t.Errorf("%s: fail ratio %d/%d", mx.name, c.failed, c.attempted)
		}
	}
}
