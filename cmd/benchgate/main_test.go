package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: cloudvar/internal/stats
cpu: Fake CPU @ 3.00GHz
BenchmarkStatsQuantile/n=32-8         	     100	       341.8 ns/op	       0 B/op	       0 allocs/op
BenchmarkStatsQuantile/n=1024-8       	     100	     54255 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineRunUntil-16            	      50	     58060 ns/op	   21672 B/op	     523 allocs/op
BenchmarkNoMem                        	    1000	      12.5 ns/op
PASS
ok  	cloudvar/internal/stats	1.234s
`

func TestParseBench(t *testing.T) {
	rs, err := parseBench([]byte(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("parsed %d results, want 4", len(rs))
	}
	want := Result{Name: "BenchmarkStatsQuantile/n=32", Iterations: 100, NsPerOp: 341.8}
	if rs[0] != want {
		t.Fatalf("rs[0] = %+v, want %+v", rs[0], want)
	}
	if rs[2].Name != "BenchmarkEngineRunUntil" || rs[2].AllocsPerOp != 523 || rs[2].BytesPerOp != 21672 {
		t.Fatalf("rs[2] = %+v", rs[2])
	}
	if rs[3].Name != "BenchmarkNoMem" || rs[3].NsPerOp != 12.5 {
		t.Fatalf("rs[3] = %+v", rs[3])
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkX-8":               "BenchmarkX",
		"BenchmarkX/n=32-16":         "BenchmarkX/n=32",
		"BenchmarkX/depth=16":        "BenchmarkX/depth=16", // already stripped: 16 after '=' not '-'
		"BenchmarkX/buckets=64-4":    "BenchmarkX/buckets=64",
		"BenchmarkY":                 "BenchmarkY",
		"BenchmarkY/sub-case-notnum": "BenchmarkY/sub-case-notnum",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGate(t *testing.T) {
	tol := Tolerance{AllocsRatio: 1.25, AllocsSlack: 2, BytesRatio: 1.5, BytesSlack: 64}
	baseline := []Result{
		{Name: "BenchmarkA", AllocsPerOp: 100, BytesPerOp: 1000, NsPerOp: 50},
		{Name: "BenchmarkB", AllocsPerOp: 0, BytesPerOp: 0, NsPerOp: 10},
		{Name: "BenchmarkGone", AllocsPerOp: 1},
	}
	results := []Result{
		{Name: "BenchmarkA", AllocsPerOp: 124, BytesPerOp: 1499, NsPerOp: 500}, // inside tolerance; ns not gated
		{Name: "BenchmarkB", AllocsPerOp: 1, BytesPerOp: 32, NsPerOp: 10},      // slack absorbs zero baselines
		{Name: "BenchmarkNew", AllocsPerOp: 9999},                              // not in baseline: passes
	}
	if regs := gate(baseline, results, tol); len(regs) != 1 || !regs[0].missing || regs[0].name != "BenchmarkGone" {
		t.Fatalf("gate = %v, want only BenchmarkGone missing", regs)
	}

	// A real allocation regression fires.
	results[0].AllocsPerOp = 126
	regs := gate(baseline[:1], results, tol)
	if len(regs) != 1 || regs[0].metric != "allocs/op" {
		t.Fatalf("gate = %v, want one allocs/op regression", regs)
	}
	if !strings.Contains(regs[0].String(), "allocs/op regressed") {
		t.Fatalf("regression message %q", regs[0])
	}

	// ns gating only with ns_ratio set.
	tol.NsRatio = 2
	results[0].AllocsPerOp = 100
	regs = gate(baseline[:1], results, tol)
	if len(regs) != 1 || regs[0].metric != "ns/op" {
		t.Fatalf("gate with ns_ratio = %v, want one ns/op regression", regs)
	}
}

// withFakeSuite routes runSuite to canned output for the duration of
// the test.
func withFakeSuite(t *testing.T, out string) {
	t.Helper()
	orig := runSuite
	runSuite = func(s Suite, count int, stderr io.Writer) ([]byte, error) { return []byte(out), nil }
	t.Cleanup(func() { runSuite = orig })
}

func writeConfig(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "benchgate.json")
	cfg := `{"suites":[{"package":"./fake","bench":"BenchmarkStats","benchtime":"100x"}],
	         "tolerance":{"allocs_ratio":1.25,"allocs_slack":2,"bytes_ratio":1.5,"bytes_slack":64}}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUpdateThenGate(t *testing.T) {
	dir := t.TempDir()
	cfgPath := writeConfig(t, dir)
	basePath := filepath.Join(dir, "BENCH_baseline.json")
	outPath := filepath.Join(dir, "BENCH_pipeline.json")
	args := []string{"-config", cfgPath, "-baseline", basePath, "-out", outPath}

	withFakeSuite(t, sampleOutput)
	var stdout, stderr bytes.Buffer

	// First run without a baseline: execution error (2), with a hint.
	if code := run(args, &stdout, &stderr); code != 2 {
		t.Fatalf("run without baseline = %d, want 2 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-update") {
		t.Fatalf("missing-baseline error should hint at -update: %q", stderr.String())
	}

	// -update creates the baseline and the trajectory artifact.
	stdout.Reset()
	stderr.Reset()
	if code := run(append(args, "-update"), &stdout, &stderr); code != 0 {
		t.Fatalf("-update = %d, stderr %q", code, stderr.String())
	}
	var rep Report
	if err := readJSON(outPath, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != 1 || len(rep.Benchmarks) != 4 {
		t.Fatalf("pipeline report = %+v", rep)
	}

	// Same measurements gate clean.
	stdout.Reset()
	if code := run(append(args, "-v"), &stdout, &stderr); code != 0 {
		t.Fatalf("clean gate = %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "within tolerance") {
		t.Fatalf("stdout %q", stdout.String())
	}

	// A regressed measurement fails with exit 1 and names the bench.
	regressed := strings.Replace(sampleOutput,
		"58060 ns/op	   21672 B/op	     523 allocs/op",
		"58060 ns/op	   21672 B/op	    2000 allocs/op", 1)
	withFakeSuite(t, regressed)
	stderr.Reset()
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("regressed gate = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "BenchmarkEngineRunUntil") {
		t.Fatalf("stderr should name the regressed benchmark: %q", stderr.String())
	}
}

func TestMedians(t *testing.T) {
	rs := medians([]Result{
		{Name: "BenchmarkB", Iterations: 10, NsPerOp: 30, BytesPerOp: 8, AllocsPerOp: 1},
		{Name: "BenchmarkA", Iterations: 5, NsPerOp: 7},
		{Name: "BenchmarkB", Iterations: 10, NsPerOp: 10, BytesPerOp: 8, AllocsPerOp: 1},
		{Name: "BenchmarkB", Iterations: 10, NsPerOp: 20, BytesPerOp: 16, AllocsPerOp: 3},
		{Name: "BenchmarkA", Iterations: 5, NsPerOp: 9},
	})
	want := []Result{
		{Name: "BenchmarkB", Iterations: 10, NsPerOp: 20, BytesPerOp: 8, AllocsPerOp: 1},
		{Name: "BenchmarkA", Iterations: 5, NsPerOp: 8}, // even count: mean of the middle two
	}
	if len(rs) != len(want) {
		t.Fatalf("medians = %+v, want %+v", rs, want)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Errorf("medians[%d] = %+v, want %+v", i, rs[i], want[i])
		}
	}
}

func TestRunCountKeepsMedians(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "BENCH_pipeline.json")
	args := []string{"-config", writeConfig(t, dir), "-baseline", filepath.Join(dir, "base.json"),
		"-out", outPath, "-update", "-count", "3"}
	var gotCount int
	orig := runSuite
	runSuite = func(s Suite, count int, stderr io.Writer) ([]byte, error) {
		gotCount = count
		return []byte(`BenchmarkX-8	100	300 ns/op	16 B/op	1 allocs/op
BenchmarkX-8	100	100 ns/op	16 B/op	1 allocs/op
BenchmarkX-8	100	200 ns/op	16 B/op	1 allocs/op
`), nil
	}
	t.Cleanup(func() { runSuite = orig })

	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, stderr.String())
	}
	if gotCount != 3 {
		t.Fatalf("suite ran with -count %d, want 3", gotCount)
	}
	var rep Report
	if err := readJSON(outPath, &rep); err != nil {
		t.Fatal(err)
	}
	want := Result{Name: "BenchmarkX", Iterations: 100, NsPerOp: 200, BytesPerOp: 16, AllocsPerOp: 1}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0] != want {
		t.Fatalf("report = %+v, want one %+v", rep.Benchmarks, want)
	}
	if code := run(append(args, "-count", "0"), &stdout, &stderr); code != 2 {
		t.Fatalf("-count 0 = %d, want 2", code)
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	old := Report{Schema: 1, Benchmarks: []Result{
		{Name: "BenchmarkGone", NsPerOp: 5},
		{Name: "BenchmarkX", NsPerOp: 2000, BytesPerOp: 64, AllocsPerOp: 4},
	}}
	cur := Report{Schema: 1, Benchmarks: []Result{
		{Name: "BenchmarkNew", NsPerOp: 5},
		{Name: "BenchmarkX", NsPerOp: 500, BytesPerOp: 32, AllocsPerOp: 2},
	}}
	if err := writeJSON(oldPath, old); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(newPath, cur); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", oldPath, newPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("-compare = %d, stderr %q", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("-compare printed %d lines, want a header and BenchmarkX only:\n%s", len(lines), stdout.String())
	}
	fields := strings.Fields(lines[1])
	want := []string{"BenchmarkX", "2000.0", "500.0", "0.250", "64", "->", "32", "4", "->", "2"}
	if strings.Join(fields, " ") != strings.Join(want, " ") {
		t.Fatalf("-compare row %q, want fields %q", lines[1], want)
	}
	if code := run([]string{"-compare", oldPath}, &stdout, &stderr); code != 2 {
		t.Fatalf("-compare with one report = %d, want 2", code)
	}
}

// TestCommittedConfigMatchesRepo guards the committed gate wiring: the
// repo-root benchgate.json must parse, reference only packages that
// exist, and the committed baseline must cover every suite.
func TestCommittedConfigMatchesRepo(t *testing.T) {
	root := "../.."
	var cfg Config
	if err := readJSON(filepath.Join(root, "benchgate.json"), &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Suites) == 0 {
		t.Fatal("committed benchgate.json has no suites")
	}
	if cfg.Tolerance.AllocsRatio <= 0 {
		t.Fatal("committed tolerance must gate allocs/op")
	}
	var baseline Report
	if err := readJSON(filepath.Join(root, "BENCH_baseline.json"), &baseline); err != nil {
		t.Fatalf("committed baseline: %v (generate with: go run ./cmd/benchgate -update)", err)
	}
	if len(baseline.Benchmarks) == 0 {
		t.Fatal("committed baseline is empty")
	}
	for _, s := range cfg.Suites {
		if _, err := os.Stat(filepath.Join(root, strings.TrimPrefix(s.Package, "./"))); err != nil {
			t.Errorf("suite package %s missing: %v", s.Package, err)
		}
		prefix := false
		for _, b := range baseline.Benchmarks {
			// The suite regexes are literal prefixes (possibly
			// alternated); a prefix hit means the suite is represented.
			for _, alt := range strings.Split(s.Bench, "|") {
				if strings.HasPrefix(b.Name, alt) {
					prefix = true
					break
				}
			}
		}
		if !prefix {
			t.Errorf("baseline has no benchmarks for suite %q (%s)", s.Bench, s.Package)
		}
	}
	for _, b := range baseline.Benchmarks {
		if b.Name != stripProcs(b.Name) {
			t.Errorf("baseline name %q carries a GOMAXPROCS suffix; regenerate with -update", b.Name)
		}
	}
}
