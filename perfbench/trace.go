package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// passSpan names the root span of the traced pass; its self time is
// the pass's wall time no layer span covers.
const passSpan = "pass"

// tracer keeps spans and counters in memory; write saves them when
// the run ends. Safe for concurrent use.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

// span is one call across a layer boundary. Parent is the ID of the
// span that caused it, 0 for a root. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: make(map[string]int64)}
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int) int {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func() error) error {
	id := t.start(name, parent)
	defer t.end(id)
	return fn()
}

// add increments a counter.
func (t *tracer) add(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) count(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// find returns the first span with the given name, or nil.
func (t *tracer) find(name string) *span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].Name == name {
			s := t.spans[i]
			return &s
		}
	}
	return nil
}

// durations returns the durations of every span with the given name,
// in start order.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.duration())
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part
// of its interval that its child spans cover. Children that overlap
// (concurrent calls) are counted once.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self, _ := t.selfByID()
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// attribution names the spans a workload's per-layer metrics report:
// self lists spans whose self time a metric reports, inclusive spans
// whose whole duration, children included, a metric reports.
type attribution struct{ self, inclusive []string }

// unattributed is the time inside the first span named root that no
// per-layer metric reports: the self time of root and of every span
// below it, except spans named in a.self and whole subtrees under a
// span named in a.inclusive.
func (t *tracer) unattributed(root string, a attribution) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self, children := t.selfByID()
	var walk func(s span) time.Duration
	walk = func(s span) time.Duration {
		if slices.Contains(a.inclusive, s.Name) {
			return 0
		}
		var d time.Duration
		if !slices.Contains(a.self, s.Name) {
			d = self[s.ID]
		}
		for _, c := range children[s.ID] {
			d += walk(c)
		}
		return d
	}
	for _, s := range t.spans {
		if s.Name == root {
			return walk(s)
		}
	}
	return 0
}

// selfByID returns each span's self time by span ID, and each span's
// children by parent ID. The caller holds t.mu.
func (t *tracer) selfByID() (map[int]time.Duration, map[int][]span) {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = s.duration() - covered(s, children[s.ID])
	}
	return self, children
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total, curStart, curEnd int64
	open := false
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi <= lo {
			continue
		}
		if open && lo <= curEnd {
			curEnd = max(curEnd, hi)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = lo, hi, true
	}
	if open {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// write saves every span and counter as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(struct {
		Spans  []span           `json:"spans"`
		Counts map[string]int64 `json:"counts"`
	}{t.spans, t.counts}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// step runs fn, inside a span when tr is set.
func step(tr *tracer, name string, parent int, fn func() error) error {
	if tr == nil {
		return fn()
	}
	return tr.timed(name, parent, fn)
}
