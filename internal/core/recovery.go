package core

import (
	"cmp"
	"fmt"
	"slices"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// This file implements the recovery observer of Section 5. After a crash the
// observer scans each thread's circular undo log in the surviving media
// image, identifies the fully persisted sequences, and rolls back
//
//   - each thread's most recent fully persisted sequence (its writes may have
//     persisted only partially), and
//   - transitively, every sequence whose timestamp is greater than or equal
//     to that of any sequence being rolled back,
//
// applying each sequence's ⟨address, old value⟩ entries in reverse order and
// processing sequences in reverse timestamp order. The surviving state then
// corresponds to the prefix of the transaction serialization that committed
// strictly before the earliest rolled-back timestamp.

// sequence is one fully persisted run of undo entries concluded by a
// LOGGED/COMMITTED marker: its data entries occupy slots [start, end) of the
// log at base, in append order, and its marker occupies slot end. Rollback
// reads the entries in place.
type sequence struct {
	base       nvm.Addr
	ts         uint64
	start, end int
}

// scanLog appends the fully persisted sequences of one thread's circular log,
// as the heap holds it after a crash, to seqs, in one pass over the slots. It
// also returns how many leading slots the log uses: one past the last slot
// holding a non-zero word, so every slot from there on is already zero.
//
// Grouping rules (Section 5.1 and 5.2):
//
//   - an entry is fully persisted only if both of its words carry the same
//     wraparound bit;
//   - a sequence is a consecutive run of data entries sharing one wraparound
//     bit, concluded by a marker entry with that same bit;
//   - a run may start at slot 0 or immediately after a marker with the same
//     bit; runs that begin anywhere else are the partially overwritten
//     remains of an older epoch and are ignored (the Section 5.2 reuse
//     conditions guarantee such remains can never need rollback).
func scanLog(heap *nvm.Heap, base nvm.Addr, capEntries int, seqs []sequence) ([]sequence, int) {
	heapWords := uint64(heap.Words())
	used := 0
	runValid := false // whether the current slot may extend a run
	runBit := uint64(0)
	runStart := 0
	for i := 0; i < capEntries; i++ {
		tagWord := heap.Load(base + nvm.Addr(i*entryWords))
		payloadWord := heap.Load(base + nvm.Addr(i*entryWords) + 1)
		if tagWord|payloadWord != 0 {
			used = i + 1
		}
		tag, payload, bit, wrapPayload := decodeEntry(tagWord, payloadWord)
		marker := isMarker(tag)
		if bit != wrapPayload || !marker && (tag == uint64(nvm.NilAddr) || tag >= heapWords) {
			// A torn entry (its two words did not persist together), a
			// zeroed slot, or a tag that names no heap word.
			runValid = false
			continue
		}
		if i == 0 {
			// Slot 0 is always the first entry written in an epoch, so a run
			// may begin here unconditionally.
			runValid, runBit, runStart = true, bit, 0
		} else if runValid && bit != runBit {
			// The epoch boundary (log head at crash time): entries beyond it
			// belong to the previous epoch, and the first of them is not
			// preceded by a same-epoch marker, so it cannot start a run. Any
			// sequence it belonged to was partially overwritten, which the
			// Section 5.2 reuse conditions guarantee is never needed again.
			runValid = false
		}
		if marker {
			if runValid {
				seqs = append(seqs, sequence{base: base, ts: payload, start: runStart, end: i})
			}
			// Whether or not the marker concluded a run, a new run may start
			// immediately after any fully persisted marker.
			runValid, runBit, runStart = true, bit, i+1
		}
	}
	return seqs, used
}

// logsInvalid marks the invalidation record (the globals word at
// offLogsInvalid) as set; its low bits carry the interrupted Recover's
// MaxTimestamp.
const logsInvalid = uint64(1) << 63

// drainPoint names one of Recover's drains that follows a store of recovery
// state a crash must not tear.
type drainPoint int

const (
	// recordDrain: the invalidation record is stored and flushed.
	recordDrain drainPoint = iota
	// zeroDrain: the zeroes that invalidate the logs are stored and flushed.
	zeroDrain
)

// beforeDrain, when non-nil, runs just before Recover drains at point. Tests
// set it to crash the heap there; production leaves it nil.
var beforeDrain func(point drainPoint)

// Recover restores the heap to a crash-consistent state using the log
// directory recorded in layout. It must run before any new transactions
// execute on the heap; the typical flow after a crash is
//
//	report, err := core.Recover(heap, layout)
//	eng, err := core.Open(heap, layout, cfg)
//
// Recover is idempotent: running it again on an already-recovered heap rolls
// back nothing further, and so is a Recover that a crash interrupted — while
// it zeroes the logs, a durable record in the globals region says that the
// rollback is complete, and the next Recover only finishes the zeroing.
func Recover(heap *nvm.Heap, layout Layout) (ptm.RecoveryReport, error) {
	var report ptm.RecoveryReport
	if layout.GlobalsBase == nvm.NilAddr || layout.DirectoryBase == nvm.NilAddr ||
		layout.MaxThreads == 0 || layout.LogEntries == 0 {
		return report, fmt.Errorf("core: invalid layout %+v", layout)
	}

	// Gather every thread's fully persisted sequences, and the extent of
	// every log that holds anything.
	type extent struct {
		base nvm.Addr
		used int
	}
	var all []sequence
	var used []extent
	for slot := 0; slot < layout.MaxThreads; slot++ {
		logBase := nvm.Addr(heap.Load(layout.DirectoryBase + nvm.Addr(slot)))
		if logBase == nvm.NilAddr {
			continue
		}
		report.ThreadsScanned++
		var n int
		if all, n = scanLog(heap, logBase, layout.LogEntries, all); n > 0 {
			used = append(used, extent{logBase, n})
		}
	}

	record := layout.GlobalsBase + offLogsInvalid
	flusher := heap.NewFlusher()
	if r := heap.Load(record); r&logsInvalid != 0 {
		// A crash interrupted an earlier Recover while it zeroed the logs: its
		// rollback is durable, and what is left of the logs is a mix of
		// zeroes and entries that must not be rolled back a second time (a
		// thread whose newest sequence was zeroed would lower the bound R
		// below). Only the zeroing is redone.
		report.MaxTimestamp = r &^ logsInvalid
	} else {
		if len(used) == 0 {
			return report, nil
		}
		report.SequencesFound = len(all)
		rollBack(heap, flusher, all, &report)
		// The restored state must itself be durable before the record that
		// stops the next Recover from restoring it again: a crash before one
		// drain of both could persist the record without some restored words.
		flusher.Drain()
		heap.Store(record, logsInvalid|report.MaxTimestamp)
		flusher.Flush(record)
		if beforeDrain != nil {
			beforeDrain(recordDrain)
		}
		flusher.Drain()
	}

	// Invalidate every log so that a subsequent crash (before the logs are
	// reused) does not roll the same sequences back again against new state.
	// Stopping at each log's used extent spares re-reading its zero tail.
	for _, x := range used {
		zeroLines(heap, flusher, x.base, x.used*entryWords)
	}
	if beforeDrain != nil {
		beforeDrain(zeroDrain)
	}
	flusher.Drain()
	heap.Store(record, 0)
	flusher.Flush(record)
	flusher.Drain()
	return report, nil
}

// rollBack rolls back every sequence that recovery must undo and records the
// work in report, without draining. R is the minimum over threads of the
// timestamp of the thread's most recent sequence; every sequence with
// ts >= R is rolled back, in reverse timestamp order (timestamps are unique,
// so the order is total), each one's entries newest first, read from its log
// in place.
func rollBack(heap *nvm.Heap, f *nvm.Flusher, all []sequence, report *ptm.RecoveryReport) {
	lastByLog := make(map[nvm.Addr]uint64)
	for _, s := range all {
		lastByLog[s.base] = max(lastByLog[s.base], s.ts)
		report.MaxTimestamp = max(report.MaxTimestamp, s.ts)
	}
	rollbackFrom := report.MaxTimestamp
	for _, last := range lastByLog {
		rollbackFrom = min(rollbackFrom, last)
	}
	rollback := slices.DeleteFunc(all, func(s sequence) bool { return s.ts < rollbackFrom })
	slices.SortFunc(rollback, func(a, b sequence) int { return cmp.Compare(b.ts, a.ts) })
	for _, s := range rollback {
		for i := s.end - 1; i >= s.start; i-- {
			addr := s.base + nvm.Addr(i*entryWords)
			tag, old, _, _ := decodeEntry(heap.Load(addr), heap.Load(addr+1))
			heap.Store(nvm.Addr(tag), old)
			f.Flush(nvm.Addr(tag))
		}
		report.WordsRestored += s.end - s.start
		report.SequencesRolledBack++
	}
}

// zeroLines zeroes, one cache line at a time, every line of [base,
// base+words) that holds a non-zero word, and flushes it; base is line
// aligned. It reports whether it stored anything, that is, whether the caller
// has something to drain. A line it skips was already zero in media too:
// undo log tag words are never zero, so an all-zero line of a log was last
// written by a zeroing that drained, or comes straight from a crash, after
// which the visible image is the media image.
func zeroLines(heap *nvm.Heap, f *nvm.Flusher, base nvm.Addr, words int) bool {
	var zero [nvm.WordsPerLine]uint64
	stored := false
	end := base + nvm.Addr(words)
	for line := base; line < end; line += nvm.WordsPerLine {
		n := min(nvm.WordsPerLine, int(end-line))
		nonZero := false
		for k := 0; k < n && !nonZero; k++ {
			nonZero = heap.Load(line+nvm.Addr(k)) != 0
		}
		if !nonZero {
			continue
		}
		heap.StoreLine(nvm.LineOf(line), uint8(0xff>>(nvm.WordsPerLine-n)), &zero)
		f.Flush(line)
		stored = true
	}
	return stored
}
