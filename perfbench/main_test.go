package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeBench is a workload whose passes do nothing, so the harness's
// metric sets can be checked against BENCHMARK.json.
type fakeBench struct{}

func (fakeBench) setup(int) (fixture, error) { return fakeFixture{}, nil }

func (fakeBench) warmCheck(*checker) (outputs, error) { return outputs{"x": "1"}, nil }

func (fakeBench) traced(_ *checker, tr *tracer) (outputs, map[string]metric, attribution, error) {
	root := tr.start(passSpan, 0)
	tr.timed("figures.x", root, func() error { time.Sleep(time.Millisecond); return nil })
	tr.end(root)
	return outputs{"x": "1"}, map[string]metric{"spark.jobs": {1, "count"}}, attribution{self: []string{"figures.x"}}, nil
}

type fakeFixture struct{}

func (fakeFixture) run() (int, error)        { time.Sleep(time.Millisecond); return 3, nil }
func (fakeFixture) outputs(*checker) outputs { return outputs{"x": "1"} }
func (fakeFixture) close()                   {}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricsMatchBenchmarkJSON checks that a timed run prints exactly
// the end-to-end metrics BENCHMARK.json declares and a traced run
// exactly its per-layer metrics, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want declared
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	c := &checker{log: io.Discard}
	timed, err := timedRun(fakeBench{}, 10*time.Millisecond, c)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := tracedRun(fakeBench{}, filepath.Join(t.TempDir(), "spans.json"), c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		got  map[string]metric
		want []struct{ Name, Unit string }
	}{{"end_to_end", timed, want.EndToEnd}, {"per_layer", traced, want.PerLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: run prints %d metrics, BENCHMARK.json declares %d", tc.kind, len(tc.got), len(tc.want))
		}
		for _, w := range tc.want {
			if m, ok := tc.got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("%s: %s printed as %+v (present %v), declared unit %q", tc.kind, w.Name, m, ok, w.Unit)
			}
		}
	}
	if c.failed != 0 || c.attempted == 0 {
		t.Errorf("checker counted %d failed of %d", c.failed, c.attempted)
	}
}

// TestSelfTimes checks that a span's self time subtracts the union of
// its children, counting overlapping children once.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	got := tr.selfTimes()
	want := map[string]time.Duration{"root": 100 - 40 - 10, "a": 30 - 5 + 20, "b": 30, "c": 5}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, got[name], d)
		}
	}
}

// TestUnattributed checks that the unattributed time under the root
// is the self time of every span no metric reports: the root's own,
// and that of spans neither named as reported nor inside a span a
// metric reports inclusively.
func TestUnattributed(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "probe", Start: 0, End: 500},
		{ID: 2, Name: passSpan, Start: 0, End: 100},
		{ID: 3, Parent: 2, Name: "metered", Start: 10, End: 30},
		{ID: 4, Parent: 3, Name: "unmetered", Start: 12, End: 14},
		{ID: 5, Parent: 2, Name: "inclusive", Start: 30, End: 60},
		{ID: 6, Parent: 5, Name: "unmetered", Start: 35, End: 45},
		{ID: 7, Parent: 2, Name: "unmetered", Start: 70, End: 80},
	}
	got := tr.unattributed(passSpan, attribution{self: []string{"metered"}, inclusive: []string{"inclusive"}})
	// root self 100-20-30-10 = 40, span 4: 2, span 7: 10; span 6 is inside "inclusive".
	if want := time.Duration(40 + 2 + 10); got != want {
		t.Errorf("unattributed = %d, want %d", got, want)
	}
}
