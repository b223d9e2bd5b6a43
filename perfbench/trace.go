package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer of the program: a name,
// its interval, the span that caused it, and point events inside it (the
// token lines of a generate request).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Events []int64 `json:"events_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced phases run: record, start and end are
// nil-safe.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a span measured by the caller and returns its ID (0 when
// untraced).
func (t *tracer) record(parent int64, name string, start, end time.Time, events []time.Time) int64 {
	if t == nil {
		return 0
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Name: name}
	t.add(s, start, end, events)
	return s.ID
}

func (t *tracer) add(s span, start, end time.Time, events []time.Time) {
	s.Start, s.End = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	for _, e := range events {
		s.Events = append(s.Events, int64(e.Sub(t.epoch)))
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// open is a span whose children may be recorded before it ends.
type open struct {
	t     *tracer
	s     span
	start time.Time
}

// start opens a span now (nil when untraced).
func (t *tracer) start(parent int64, name string) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, s: span{ID: t.nextID.Add(1), Parent: parent, Name: name}, start: time.Now()}
}

// id returns the span's ID, 0 for an untraced span.
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span now.
func (o *open) end() {
	if o != nil {
		o.t.add(o.s, o.start, time.Now(), nil)
	}
}

// timed runs f inside a span.
func (t *tracer) timed(parent int64, name string, f func()) {
	start := time.Now()
	f()
	t.record(parent, name, start, time.Now(), nil)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
