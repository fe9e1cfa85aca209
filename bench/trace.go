package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one traced interval: a layer boundary crossed by the benchmark's
// own code (spans inside the program under test are a later change). Spans
// of one request — or of one burst flushed together — share Req; Parent is
// the index of the enclosing span in the same tracer, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer is a preallocated span buffer owned by one goroutine. add never
// allocates: once the buffer is full, further spans are counted and dropped.
type tracer struct {
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, 0, capacity)} }

func (t *tracer) add(name string, start, end int64, parent int32, req int64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover, and counts the spans.
func (t *tracer) selfTimes() (self map[string]int64, count map[string]int64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, count = map[string]int64{}, map[string]int64{}
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - child[i]
		count[s.Name]++
	}
	return self, count
}

// traceFile is what one traced run writes out.
type traceFile struct {
	Workload string         `json:"workload"`
	Env      map[string]any `json:"env"`
	Dropped  int            `json:"dropped_spans"`
	// Tracks holds one span list per recording goroutine (client
	// connections, then the in-process replay and ladder); Parent indexes
	// within a track.
	Tracks map[string][]span `json:"tracks"`
}

func writeTrace(dir, workload string, env map[string]any, tracks map[string]*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Workload: workload, Env: env, Tracks: map[string][]span{}}
	for name, t := range tracks {
		tf.Tracks[name] = t.spans
		tf.Dropped += t.dropped
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(&tf)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
