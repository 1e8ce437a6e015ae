package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval around a call the benchmark makes into the
// program. Spans of one request share Req; Parent links a span to the
// phase or step that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    int64  `json:"req,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// record adds a finished span and returns its id (0 on a nil tracer).
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	return id
}

// begin opens a span that finish closes; its id can parent other spans
// meanwhile.
func (t *tracer) begin(name string, start time.Time) int64 {
	return t.record(name, 0, 0, start, start)
}

// finish sets the end of a span opened by begin to now.
func (t *tracer) finish(id int64) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
}

// timed runs fn inside a span and returns fn's error, the span id and the
// elapsed time. The elapsed time is measured whether or not tracing is on.
func (t *tracer) timed(name string, parent int64, fn func() error) (int64, time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	return t.record(name, parent, 0, start, end), end.Sub(start), err
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
