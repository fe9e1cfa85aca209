package alloc

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"crafty/internal/nvm"
)

// A fuzz input is a sequence of 11-byte records — op, 16-bit index, 64-bit
// value — each mutating the persisted image of a churned arena or adding a
// block to the reachable list later handed to Recover.
const (
	fzHeader     = iota // header-table word [index] = value
	fzHeaderMagc        // the same, with the header magic forced on
	fzHighWater         // high-water word = value
	fzVersion           // version word = value
	fzReachable         // reachable block {data line index, value words}
	fzOps

	fzRecLen = 11
)

func fzRec(op byte, index uint16, value uint64) []byte {
	rec := []byte{op, byte(index), byte(index >> 8)}
	return binary.LittleEndian.AppendUint64(rec, value)
}

// churnedArena builds the arena every fuzz execution starts from: mixed-size
// blocks allocated, freed, split and coalesced until the header table holds
// live blocks, free blocks and stale interior words, all committed and fenced.
func churnedArena(t testing.TB) *txArena {
	a := newArena(t, 2048)
	rng := rand.New(rand.NewSource(7))
	var live []nvm.Addr
	for step := 0; step < 200; step++ {
		if len(live) > 12 || (len(live) > 0 && rng.Intn(3) == 0) {
			i := rng.Intn(len(live))
			a.free(live[i])
			live = append(live[:i], live[i+1:]...)
		} else {
			live = append(live, a.alloc(1+rng.Intn(5*nvm.WordsPerLine)))
		}
		if step%50 == 49 {
			a.Coalesce()
		}
	}
	return a
}

// chain returns the arena's volatile blocks in address order, failing the
// test unless they tile [dataBase, next) exactly: no block tag inside another
// block, no gap, no overlap.
func chain(t testing.TB, a *Arena) (live, free []Block) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	cursor := 0
	for l, v := range a.lineState {
		if lsState(v) == lsUnknown {
			continue
		}
		if l != cursor || lsLines(v) <= 0 {
			t.Fatalf("rebuilt chain: tag %#x at line %d, but the previous block ends at line %d", v, l, cursor)
		}
		b := Block{Addr: a.lineAddr(l), Words: lsLines(v) * nvm.WordsPerLine}
		if lsState(v) == lsAllocBase {
			live = append(live, b)
		} else {
			free = append(free, b)
		}
		cursor = l + lsLines(v)
	}
	if a.lineAddr(cursor) != a.next {
		t.Fatalf("rebuilt chain ends at line %d, frontier at line %d", cursor, a.lineOf(a.next))
	}
	return live, free
}

func FuzzRecoverHeaders(f *testing.F) {
	seedArena := churnedArena(f)
	st := seedArena.Stats()
	usedLines := uint16(st.UsedWords / nvm.WordsPerLine)
	hdr := func(line uint16) uint64 { return seedArena.h.Load(seedArena.headerBase + nvm.Addr(line)) }
	f.Add([]byte{})
	f.Add(fzRec(fzHighWater, 0, 1<<63)) // negative as an int: once rebuilt an empty arena over live blocks
	f.Add(fzRec(fzHighWater, 0, 0))
	f.Add(fzRec(fzHighWater, 0, uint64(usedLines)-3))
	f.Add(fzRec(fzHighWater, 0, uint64(usedLines)+40))
	f.Add(fzRec(fzHighWater, 0, ^uint64(0)))
	f.Add(fzRec(fzVersion, 0, arenaVersion+1))
	f.Add(fzRec(fzHeader, 0, 0))
	f.Add(fzRec(fzHeader, usedLines/2, 0xdeadbeef))
	f.Add(fzRec(fzHeaderMagc, 0, 1<<40|1)) // a class far larger than the arena
	f.Add(fzRec(fzHeaderMagc, 3, 0))       // a zero-line block
	for line := uint16(0); line < usedLines; line += 5 {
		// Real header words, moved one line over and with the state flipped.
		f.Add(append(fzRec(fzHeader, line+1, hdr(line)), fzRec(fzHeader, line, hdr(line)^hdrAllocBit)...))
	}
	var reach []byte
	seedLive, _ := chain(f, seedArena.Arena)
	for _, b := range seedLive {
		reach = append(reach, fzRec(fzReachable, uint16(seedArena.lineOf(b.Addr)), uint64(b.Words))...)
	}
	f.Add(reach)                                                     // the true live set: reconciles cleanly
	f.Add(append(reach[:fzRecLen:fzRecLen], reach[:fzRecLen]...))    // a block listed twice
	f.Add(fzRec(fzReachable, 1, 1<<63-1))                            // size class overflows
	f.Add(fzRec(fzReachable, usedLines+500, 8))                      // outside the region
	f.Add(append(fzRec(fzHighWater, 0, 1<<63), reach[:fzRecLen]...)) // both at once

	f.Fuzz(func(t *testing.T, data []byte) {
		a := churnedArena(t)
		origLive, _ := chain(t, a.Arena)
		// Headers below firstMut and the chain they spell are bytes the
		// scavenge must take at their word.
		firstMut := a.dataLines
		var reachable []Block
		for ; len(data) >= fzRecLen; data = data[fzRecLen:] {
			index := int(binary.LittleEndian.Uint16(data[1:]))
			value := binary.LittleEndian.Uint64(data[3:])
			switch op := data[0] % fzOps; op {
			case fzHeader, fzHeaderMagc:
				if op == fzHeaderMagc {
					value = hdrMagicBits | value&^hdrMagicMask
				}
				line := index % a.dataLines
				a.h.Store(a.headerBase+nvm.Addr(line), value)
				firstMut = min(firstMut, line)
			case fzHighWater:
				a.h.Store(a.metaBase+offArenaHighWater, value)
			case fzVersion:
				a.h.Store(a.metaBase+offArenaVersion, value)
			case fzReachable:
				reachable = append(reachable, Block{Addr: a.dataBase + nvm.Addr(index*nvm.WordsPerLine), Words: int(value)})
			}
		}
		hw := int(min(a.h.Load(a.metaBase+offArenaHighWater), uint64(a.dataLines)))
		version := a.h.Load(a.metaBase + offArenaVersion)

		re, err := NewArena(a.h, a.base, a.words)
		if err != nil {
			if version == arenaVersion || !errors.Is(err, ErrVersion) {
				t.Fatalf("NewArena over a version-%d image: %v", version, err)
			}
			return
		}
		b := wrapArena(a.h, re)
		checkAccounting(t, b.Arena)
		if used := b.Stats().UsedWords; used != hw*nvm.WordsPerLine {
			t.Fatalf("recovered frontier at %d words, persisted high-water mark (clamped) says %d", used, hw*nvm.WordsPerLine)
		}
		live, _ := chain(t, b.Arena)
		isLive := make(map[Block]bool, len(live))
		for _, blk := range live {
			isLive[blk] = true
		}
		for _, blk := range origLive {
			if end := a.lineOf(blk.Addr) + blk.Words/nvm.WordsPerLine; end <= firstMut && end <= hw && !isLive[blk] {
				t.Fatalf("block [%d,+%d) was live, its header and every header before it untouched, high-water mark past it — not live after recovery", blk.Addr, blk.Words)
			}
		}

		// What the rebuilt arena hands out next must be disjoint from every
		// live block, and handing it back must balance.
		tryAlloc := func(words int) (addr nvm.Addr, ok bool) {
			defer func() {
				// A recovered arena may be full; that panic is
				// TestAllocInvalidAndExhausted's to check.
				if r := recover(); r != nil {
					if err, _ := r.(error); !errors.Is(err, ErrExhausted) {
						panic(r)
					}
				}
			}()
			return b.l.Alloc(words, b), true
		}
		b.l.Begin()
		got := slices.Clone(live)
		for _, words := range []int{1, 3 * nvm.WordsPerLine, 9, 2 * nvm.WordsPerLine} {
			if addr, ok := tryAlloc(words); ok {
				got = append(got, Block{addr, words})
			}
		}
		if overlaps(got) {
			t.Fatalf("allocation after recovery overlaps a live block: live then allocated = %v", got)
		}
		for _, blk := range got[len(live):] {
			b.l.Free(blk.Addr, b)
		}
		b.commit()
		checkAccounting(t, b.Arena)

		if reachable == nil {
			return
		}
		if _, err := b.Recover(reachable); err != nil {
			return // refused whole; nothing to check but that it did not panic
		}
		checkAccounting(t, b.Arena)
		chain(t, b.Arena)
		if err := b.AssertLive(reachable); err != nil {
			t.Fatalf("Recover accepted the reachable set, then: %v", err)
		}
	})
}
