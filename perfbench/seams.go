package main

// Seam decorators for the traced pass. Each wraps one public seam of
// the program — fleet.Sink, shard.Worker, http.RoundTripper, the
// worker server's http.Handler and the netem.Shaper factory — passes
// every call through unchanged, and records a span or a count around
// it. The traced run checks that a decorated pass reproduces the
// undecorated pass's output digests.

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"cloudvar/internal/fleet"
	"cloudvar/internal/netem"
	"cloudvar/internal/shard"
	"cloudvar/internal/store"
)

// tracedSink times a store run's fleet.Sink calls.
type tracedSink struct {
	inner  fleet.Sink
	tr     *tracer
	parent int
}

func (s tracedSink) Completed() (map[string]fleet.StoredCell, error) {
	return s.inner.Completed()
}

func (s tracedSink) Put(res fleet.CellResult) error {
	id := s.tr.start("store.put", s.parent)
	defer s.tr.end(id)
	return s.inner.Put(res)
}

// jobCounts counts one Spark job's shaper calls across its nodes. A
// job runs on one goroutine, so the counters need no lock.
type jobCounts struct {
	rate, nextTransition int64
}

// countingShaper passes every call through to its inner shaper and
// counts Rate and NextTransition calls.
type countingShaper struct {
	inner netem.Shaper
	n     *jobCounts
}

func (s countingShaper) Rate(demand float64) float64 {
	s.n.rate++
	return s.inner.Rate(demand)
}

func (s countingShaper) Transfer(demand, dt float64) float64 { return s.inner.Transfer(demand, dt) }

func (s countingShaper) Idle(dt float64) { s.inner.Idle(dt) }

func (s countingShaper) NextTransition(demand float64) float64 {
	s.n.nextTransition++
	return s.inner.NextTransition(demand)
}

// spanHeader carries the client-side span ID to the worker server, so
// the handler's span names its cause across the HTTP hop.
const spanHeader = "X-Perfbench-Span"

// tracedWorker times a shard.Worker's Execute and Shard calls. The
// Execute call in flight is the parent of its HTTP round trip; the
// coordinator calls one worker from one goroutine at a time when no
// worker fails, which is the only case the benchmark runs.
type tracedWorker struct {
	inner  *shard.HTTPWorker
	tr     *tracer
	parent int
	call   atomic.Int64
}

func (w *tracedWorker) Begin(rc shard.RunContext, index, count int) error {
	return w.inner.Begin(rc, index, count)
}

func (w *tracedWorker) Execute(cells []fleet.Cell) ([]fleet.CellResult, error) {
	id := w.tr.start("shard.execute", w.parent)
	w.call.Store(int64(id))
	defer w.tr.end(id)
	w.tr.add("shard.execute_calls", 1)
	w.tr.add("shard.execute_cells", int64(len(cells)))
	return w.inner.Execute(cells)
}

func (w *tracedWorker) Shard() (store.ShardData, bool, error) {
	id := w.tr.start("shard.fetch", w.parent)
	defer w.tr.end(id)
	return w.inner.Shard()
}

func (w *tracedWorker) Close() error  { return w.inner.Close() }
func (w *tracedWorker) Health() error { return w.inner.Health() }

// tracedTransport times each /v1/execute round trip until its
// response body is read to the end or closed, and counts the bytes
// each way of /v1/execute and /v1/shard. Other requests pass through
// untouched: their time is the coordinator's own (/v1/close) or
// inside a shard.fetch span.
type tracedTransport struct {
	inner  http.RoundTripper
	tr     *tracer
	parent func() int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var counter string
	switch req.URL.Path {
	case "/v1/execute":
		counter = "shard.wire_bytes"
	case "/v1/shard":
		counter = "shard.fetch_bytes"
	default:
		return t.inner.RoundTrip(req)
	}
	if req.ContentLength > 0 {
		t.tr.add(counter, req.ContentLength)
	}
	body := &countingBody{tr: t.tr, counter: counter}
	if counter == "shard.wire_bytes" {
		body.span = t.tr.start("http.roundtrip", t.parent())
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(body.span))
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		body.end()
		return nil, err
	}
	body.ReadCloser = resp.Body
	resp.Body = body
	return resp, nil
}

// countingBody counts a response body's bytes and ends its round
// trip's span, if it has one, at EOF or Close, whichever comes first.
type countingBody struct {
	io.ReadCloser
	tr      *tracer
	counter string
	span    int
	once    sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tr.add(b.counter, int64(n))
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *countingBody) end() {
	b.once.Do(func() {
		if b.span != 0 {
			b.tr.end(b.span)
		}
	})
}

// tracedHandler times the worker server's handling of each
// /v1/execute request, under the client span named by spanHeader.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/execute" {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := tr.start("shard.handle_execute", parent)
		defer tr.end(id)
		h.ServeHTTP(w, r)
	})
}
