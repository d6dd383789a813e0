// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three workloads through the same public calls the entry
// points make — artifacts (cmd/reproduce), campaign (cmd/cloudbench
// then cmd/drift) and distributed (cmd/campaignd over loopback HTTP) —
// checks every output, and prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload artifacts|campaign|distributed \
//	    [--seed N] [--seconds S] [--trace 0|1]
//
// With --trace 0 it measures timed passes for about S seconds and
// reports the end-to-end metrics; with --trace 1 it runs one untraced
// and one traced pass, reports the per-layer metrics, and writes the
// spans to .bench_build/perfbench/spans-<workload>.json. README.md is
// the metric reference.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workDir holds every file a run writes, relative to the checkout
// root. Each workload wipes its own subdirectory when it starts and
// when it ends.
const workDir = ".bench_build/perfbench"

// Set-up-only repetitions run until there are at least minSetupReps
// samples and setupBudget has been spent, up to maxSetupReps: a
// set-up of tens of microseconds needs hundreds of samples for a
// steady median, one of milliseconds far fewer.
const (
	minSetupReps = 9
	maxSetupReps = 1000
	setupBudget  = 500 * time.Millisecond
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "artifacts, campaign or distributed")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the recorded digests cover the default")
	seconds := fs.Int("seconds", 10, "measurement budget for the timed passes")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	record := fs.Bool("record-digests", false, "print the default seed's output digests as JSON and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return fatal(fmt.Errorf("run from the repository root: %w", err))
	}
	if *record {
		return recordDigests(stdout, stderr)
	}
	if *traced != 0 && *traced != 1 {
		return fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if *seconds < 1 {
		return fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	dir := filepath.Join(workDir, *name)
	b, err := newBench(*name, *seed, dir)
	if err != nil {
		return fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return fatal(err)
	}
	defer os.RemoveAll(dir)

	c := &checker{log: stderr}
	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = tracedRun(b, filepath.Join(workDir, "spans-"+*name+".json"), c)
	} else {
		metrics, err = timedRun(b, time.Duration(*seconds)*time.Second, c)
	}
	if err != nil {
		return fatal(err)
	}
	out, err := json.Marshal(result{
		Correct:   c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// newBench returns the named workload at the given seed; dir is its
// working directory.
func newBench(name string, seed uint64, dir string) (bench, error) {
	switch name {
	case "artifacts":
		return &artifactsBench{seed: seed, workers: nproc()}, nil
	case "campaign":
		return &campaignBench{seed: seed, dir: dir, workers: nproc()}, nil
	case "distributed":
		return &distributedBench{seed: seed, dir: dir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want artifacts, campaign or distributed)", name)
}

func nproc() int { return runtime.GOMAXPROCS(0) }

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one workload. A pass is one run of the workload's entry
// point; its fixture is everything the entry point builds before its
// first unit of work, which is what setup_s times.
type bench interface {
	// setup builds a fresh fixture for pass number i.
	setup(i int) (fixture, error)
	// warmCheck runs one untimed pass and the workload's cross-path
	// identity check, and returns the reference outputs later passes
	// must reproduce.
	warmCheck(c *checker) (outputs, error)
	// traced runs one pass with every seam decorated and the
	// workload's layer probes, recording into tr; it returns the
	// pass's outputs, its per-layer metrics and the spans inside the
	// pass those metrics report.
	traced(c *checker, tr *tracer) (outputs, map[string]metric, attribution, error)
}

// fixture is one pass, set up and ready to run.
type fixture interface {
	// run executes the pass and reports the cells it completed.
	run() (int, error)
	// outputs digests what the pass produced; it is called after run,
	// outside the timed region.
	outputs(c *checker) outputs
	// close releases the fixture and removes its files.
	close()
}

// sample is one timed pass.
type sample struct {
	setup, wall, cpu time.Duration
	alloc            uint64
	cells            int
}

// timedPass sets up and runs one pass, timing each part, and checks
// its outputs against want.
func timedPass(b bench, i int, c *checker, want outputs) (sample, error) {
	var s sample
	runtime.GC()
	t0 := time.Now()
	fx, err := b.setup(i)
	s.setup = time.Since(t0)
	if err != nil {
		return s, fmt.Errorf("setting up pass %d: %w", i, err)
	}
	defer fx.close()
	runtime.GC()
	cpu0, alloc0 := cpuTime(), allocBytes()
	t0 = time.Now()
	cells, err := fx.run()
	s.wall = time.Since(t0)
	s.cpu, s.alloc, s.cells = cpuTime()-cpu0, allocBytes()-alloc0, cells
	c.op("pass", err)
	if err == nil {
		c.compare(fx.outputs(c), want)
	}
	return s, nil
}

// timedRun measures passes until the budget is spent: one untimed
// warm-up pass with the cross-path check, set-up-only repetitions,
// then at least one timed pass.
func timedRun(b bench, budget time.Duration, c *checker) (map[string]metric, error) {
	start := time.Now()
	want, err := b.warmCheck(c)
	if err != nil {
		return nil, err
	}
	var setups []float64
	setupStart := time.Now()
	for i := 0; i < minSetupReps || (i < maxSetupReps && time.Since(setupStart) < setupBudget); i++ {
		runtime.GC()
		t0 := time.Now()
		fx, err := b.setup(i)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("setting up: %w", err)
		}
		fx.close()
		setups = append(setups, d.Seconds())
	}
	// The peak covers the set-ups and the timed passes, not the warm-up
	// and its cross-path check, which hold two results at once; the
	// warm-up's heap goes back to the OS first.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("resetting the peak-RSS record: %w", err)
	}
	var walls, cpus, allocs, rates []float64
	var last time.Duration
	for i := 0; len(walls) == 0 || time.Since(start)+last < budget; i++ {
		t0 := time.Now()
		s, err := timedPass(b, maxSetupReps+i, c, want)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		fmt.Fprintf(c.log, "perfbench: pass %d: setup %.6fs wall %.3fs cpu %.3fs alloc %.1fMB cells %d\n",
			i, s.setup.Seconds(), s.wall.Seconds(), s.cpu.Seconds(), float64(s.alloc)/1e6, s.cells)
		setups = append(setups, s.setup.Seconds())
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		allocs = append(allocs, float64(s.alloc)/1e6)
		rates = append(rates, float64(s.cells)/s.wall.Seconds())
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"wall_s":      {median(walls), "s"},
		"cpu_s":       {median(cpus), "s"},
		"cells_per_s": {median(rates), "1/s"},
		"setup_s":     {median(setups), "s"},
		"alloc_mb":    {median(allocs), "MB"},
		"peak_rss_mb": {peak, "MB"},
	}, nil
}

// tracedRun times one untraced pass, then the traced pass, and
// reports the per-layer metrics plus the tracing overhead and the
// traced time no per-layer metric reports. The spans go to spansPath.
func tracedRun(b bench, spansPath string, c *checker) (map[string]metric, error) {
	want, err := b.warmCheck(c)
	if err != nil {
		return nil, err
	}
	plain, err := timedPass(b, 0, c, want)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	got, metrics, attr, err := b.traced(c, tr)
	if err != nil {
		return nil, err
	}
	c.compare(got, want)
	root := tr.find(passSpan)
	if root == nil {
		return nil, fmt.Errorf("traced pass recorded no %s span", passSpan)
	}
	wall := root.duration()
	metrics["trace.wall_s"] = metric{wall.Seconds(), "s"}
	metrics["trace.untraced_wall_s"] = metric{plain.wall.Seconds(), "s"}
	metrics["trace.overhead_s"] = metric{(wall - plain.wall).Seconds(), "s"}
	metrics["trace.unattributed_s"] = metric{tr.unattributed(passSpan, attr).Seconds(), "s"}
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.name] = m.unit
		if _, ok := metrics[m.name]; !ok {
			metrics[m.name] = metric{0, m.unit}
		}
	}
	for name, m := range metrics {
		if units[name] != m.Unit {
			return nil, fmt.Errorf("per-layer metric %s in %q is not in the per-layer list", name, m.Unit)
		}
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	return metrics, nil
}

// perLayer lists every per-layer metric with its unit; a workload
// that never reaches a layer reports it as 0.
var perLayer = []struct{ name, unit string }{
	{"netem.steps_per_job", "count"},
	{"netem.rate_evals_per_job", "count"},
	{"spark.jobs", "count"},
	{"spark.job_ms_p50", "ms"},
	{"spark.job_ms_p95", "ms"},
	{"figures.figure3a_s", "s"},
	{"figures.figure3b_s", "s"},
	{"figures.other_s", "s"},
	{"figures.render_s", "s"},
	{"figures.parallel_speedup", "x"},
	{"expspec.compile_ms", "ms"},
	{"fleet.fingerprint_ms", "ms"},
	{"store.create_ms", "ms"},
	{"shard.listen_ms", "ms"},
	{"fleet.execute_s", "s"},
	{"fleet.summarize_s", "s"},
	{"fleet.aggregate_s", "s"},
	{"fleet.plan_s", "s"},
	{"workload.serve_s", "s"},
	{"longitudinal.load_s", "s"},
	{"longitudinal.analyze_s", "s"},
	{"store.put_s", "s"},
	{"store.bytes_per_cell", "B"},
	{"store.merge_s", "s"},
	{"shard.coordinator_s", "s"},
	{"shard.execute_calls", "count"},
	{"shard.attempts_per_batch", "count"},
	{"shard.execute_s", "s"},
	{"shard.transport_s", "s"},
	{"shard.handler_s", "s"},
	{"shard.wire_bytes_per_cell", "B"},
	{"shard.fetch_s", "s"},
	{"shard.fetch_bytes", "B"},
	{"trace.wall_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.unattributed_s", "s"},
}

// median returns the middle value (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
