package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the pass began; Parent indexes the span that
// caused it (-1 for a root); spans of one batch (live), pass (replay)
// or query share Batch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Batch  int32  `json:"batch"`
}

// spanLog keeps spans in a preallocated slice — begin reserves a slot
// with one atomic add, so concurrent stage workers never lock or
// allocate — and is written out only when the run ends. A full log
// drops further spans and counts them.
type spanLog struct {
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, capacity)} }

func (l *spanLog) begin(name string, start int64, parent, batch int32) int32 {
	i := l.next.Add(1) - 1
	if int(i) >= len(l.spans) {
		l.dropped.Add(1)
		return -1
	}
	l.spans[i] = span{Name: name, Start: start, Parent: parent, Batch: batch}
	return i
}

func (l *spanLog) end(i int32, end int64) {
	if i >= 0 {
		l.spans[i].End = end
	}
}

func (l *spanLog) recorded() []span { return l.spans[:min(int(l.next.Load()), len(l.spans))] }

// selfTimes sums, per span name, duration minus the part of it the
// span's children cover.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for i, s := range spans {
		self[s.Name] += max(s.End-s.Start-child[i], 0)
	}
	return self
}

// spanFile is what --spans writes.
type spanFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Dropped  int64            `json:"dropped_spans"`
	SelfNs   map[string]int64 `json:"self_ns_by_name"`
	Spans    []span           `json:"spans"`
}

func writeSpans(path string, cfg *config, l *spanLog) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	spans := l.recorded()
	b, err := json.Marshal(spanFile{
		Workload: cfg.workload, Seed: cfg.seed, Dropped: l.dropped.Load(),
		SelfNs: selfTimes(spans), Spans: spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
