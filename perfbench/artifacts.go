package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/expspec"
	"cloudvar/internal/figures"
	"cloudvar/internal/fleet/pool"
	"cloudvar/internal/netem"
	"cloudvar/internal/simrand"
	"cloudvar/internal/spark"
	"cloudvar/internal/stats"
	"cloudvar/internal/workloads"
)

// artifactsBench is cmd/reproduce with its defaults: every registered
// artifact at the default scale, generated across nproc workers.
type artifactsBench struct {
	seed    uint64
	workers int
}

func (b *artifactsBench) setup(int) (fixture, error) {
	return b.setupWorkers(b.workers, nil, 0)
}

// setupWorkers compiles the artifacts section the way cmd/reproduce
// does; with a tracer it records the compile under parent.
func (b *artifactsBench) setupWorkers(workers int, tr *tracer, parent int) (*artifactsPass, error) {
	var plan expspec.Plan
	compile := func() error {
		doc, err := expspec.NewExperiment("").WithArtifacts().
			WithArtifactOptions(b.seed, expspec.DefaultArtifactScale, workers, "").Build()
		if err != nil {
			return err
		}
		plan, err = expspec.Compile(doc)
		return err
	}
	if err := step(tr, "expspec.compile", parent, compile); err != nil {
		return nil, err
	}
	// A document's zero seed means the default; the flag value is
	// literal, as in cmd/reproduce.
	cfg := figures.Config{Seed: b.seed, Scale: plan.Artifacts.Scale}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &artifactsPass{cfg: cfg, workers: plan.Artifacts.Workers}, nil
}

// artifactsPass generates and renders every artifact once.
type artifactsPass struct {
	cfg      figures.Config
	workers  int
	results  []figures.ArtifactResult
	rendered map[string][]byte
}

func (p *artifactsPass) run() (int, error) {
	results, err := figures.GenerateEach(p.cfg, p.workers)
	if err != nil {
		return 0, err
	}
	p.results = results
	p.rendered = make(map[string][]byte, len(results))
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		var buf bytes.Buffer
		if err := r.Table.Render(&buf); err != nil {
			return 0, err
		}
		p.rendered[r.ID] = buf.Bytes()
	}
	return len(results), nil
}

func (p *artifactsPass) outputs(c *checker) outputs {
	out := make(outputs, len(p.results))
	for _, r := range p.results {
		c.op("artifact "+r.ID, r.Err)
		if r.Err == nil {
			out["table/"+r.ID] = digest(p.rendered[r.ID])
		}
	}
	return out
}

func (p *artifactsPass) close() {}

// warmCheck generates every artifact serially: the cross-path check
// that output at one worker equals output at nproc, which every timed
// pass then repeats against.
func (b *artifactsBench) warmCheck(c *checker) (outputs, error) {
	p, err := b.setupWorkers(1, nil, 0)
	if err != nil {
		return nil, err
	}
	if _, err := p.run(); err != nil {
		return nil, err
	}
	return c.reference("artifacts", b.seed, p.outputs(c)), nil
}

// traced generates the artifacts one figures.Generate call per span,
// fanned out like GenerateEach, then runs the Spark/netem probe.
func (b *artifactsBench) traced(c *checker, tr *tracer) (outputs, map[string]metric, attribution, error) {
	var attr attribution
	setup := tr.start("setup", 0)
	p, err := b.setupWorkers(b.workers, tr, setup)
	tr.end(setup)
	if err != nil {
		return nil, nil, attr, err
	}
	ids := figures.IDs()
	root := tr.start(passSpan, 0)
	tables, errs := pool.Collect(len(ids), p.workers, func(i int) (figures.Table, error) {
		id := tr.start("figures."+ids[i], root)
		defer tr.end(id)
		return figures.Generate(ids[i], p.cfg)
	})
	p.rendered = make(map[string][]byte, len(ids))
	for i, id := range ids {
		p.results = append(p.results, figures.ArtifactResult{ID: id, Table: tables[i], Err: errs[i]})
		if errs[i] != nil {
			continue
		}
		var buf bytes.Buffer
		if err := tr.timed("figures.render", root, func() error { return tables[i].Render(&buf) }); err != nil {
			return nil, nil, attr, err
		}
		p.rendered[id] = buf.Bytes()
	}
	tr.end(root)
	out := p.outputs(c)

	self := tr.selfTimes()
	var other, busy float64
	attr.self = []string{"figures.render"}
	for _, id := range ids {
		attr.self = append(attr.self, "figures."+id)
		for _, d := range tr.durations("figures." + id) {
			busy += d.Seconds()
		}
		if id != "figure3a" && id != "figure3b" {
			other += self["figures."+id].Seconds()
		}
	}
	m := map[string]metric{
		"expspec.compile_ms":       {ms(self["expspec.compile"]), "ms"},
		"figures.figure3a_s":       {self["figures.figure3a"].Seconds(), "s"},
		"figures.figure3b_s":       {self["figures.figure3b"].Seconds(), "s"},
		"figures.other_s":          {other, "s"},
		"figures.render_s":         {self["figures.render"].Seconds(), "s"},
		"figures.parallel_speedup": {busy / tr.find(passSpan).duration().Seconds(), "x"},
	}
	byID := make(map[string]figures.Table, len(ids))
	for i, id := range ids {
		byID[id] = tables[i]
	}
	if err := b.sparkProbe(c, tr, p.cfg, p.workers, byID, m); err != nil {
		return nil, nil, attr, err
	}
	return out, m, attr, nil
}

// fig3Mix is one half of figure 3's app × cloud mix. The constants
// mirror internal/figures' Figure3a and Figure3b; the probe's check
// against the rendered tables fails if the two drift apart.
type fig3Mix struct {
	id          string
	app         workloads.App
	resampleSec float64
	statQ       float64
}

var fig3Clouds = []string{"A", "B", "C", "D", "E", "F", "G", "H"}

func fig3Mixes() ([]fig3Mix, error) {
	q68, err := workloads.TPCDSQuery(68)
	if err != nil {
		return nil, err
	}
	return []fig3Mix{
		{"figure3a", workloads.KMeansScaled(5, 2), 5, 0.5},
		{"figure3b", q68, 50, 0.9},
	}, nil
}

// fig3Job is one gold run of figure 3: an app on a fresh emulated
// cluster whose links resample from a Ballani cloud.
type fig3Job struct {
	mix   fig3Mix
	cloud string
	run   int
	// csrc is the cloud's source; runs derive their substream from it
	// without drawing, so a job can be replayed.
	csrc *simrand.Source
}

// jobOutcome is one probe job's runtime and shaper call counts.
type jobOutcome struct {
	runtime float64
	nodes   int
	n       jobCounts
}

// runFig3Job replays one gold run the way figures' runOnBallani does,
// with every node's shaper wrapped in a countingShaper.
func runFig3Job(j fig3Job, tr *tracer, parent int) (jobOutcome, error) {
	var out jobOutcome
	bc, err := cloudmodel.BallaniCloudByName(j.cloud)
	if err != nil {
		return out, err
	}
	dist := bc.DistGbps()
	src := j.csrc.Substream(fmt.Sprintf("run%d", j.run))
	var factoryErr error
	c, err := workloads.EmulationCluster(func(node int) netem.Shaper {
		sh, err := netem.NewSampledShaper(dist, j.mix.resampleSec, src.Substream(fmt.Sprintf("node%d", node)))
		if err != nil {
			factoryErr = err
			return &netem.FixedShaper{RateGbps: 1}
		}
		return countingShaper{inner: sh, n: &out.n}
	}, src)
	if err == nil {
		err = factoryErr
	}
	if err != nil {
		return out, err
	}
	var res spark.JobResult
	err = tr.timed("spark.run_job", parent, func() error {
		var err error
		res, err = c.RunJob(j.mix.app.Job, spark.RunOptions{})
		return err
	})
	out.runtime, out.nodes = res.Runtime(), c.Nodes()
	return out, err
}

// sparkProbe runs figure 3's whole app × cloud mix with counting
// shapers across the pass's workers, checks that the runtimes rebuild
// the rendered figure 3 rows exactly (the counting shaper is
// transparent), repeats each cloud's first run to check the counts
// are deterministic, and reports the Spark and netem layer metrics.
func (b *artifactsBench) sparkProbe(c *checker, tr *tracer, cfg figures.Config, workers int, tables map[string]figures.Table, m map[string]metric) error {
	mixes, err := fig3Mixes()
	if err != nil {
		return err
	}
	// Figure 3 floors its gold runs at 30: cfg.scaled(50, 30).
	gold := max(int(50*cfg.Scale+0.5), 30)
	var jobs []fig3Job
	for _, mix := range mixes {
		src := simrand.New(cfg.Seed)
		for _, cloud := range fig3Clouds {
			csrc := src.Substream(mix.id + "/" + cloud)
			for i := 0; i < gold; i++ {
				jobs = append(jobs, fig3Job{mix, cloud, i, csrc})
			}
		}
	}
	root := tr.start("probe.spark", 0)
	outs, errs := pool.Collect(len(jobs), workers, func(i int) (jobOutcome, error) {
		return runFig3Job(jobs[i], tr, root)
	})
	tr.end(root)

	var rate, steps float64
	for i, j := range jobs {
		c.op(fmt.Sprintf("probe job %s/%s/run%d", j.mix.id, j.cloud, j.run), errs[i])
		rate += float64(outs[i].n.rate)
		steps += float64(outs[i].n.nextTransition) / float64(max(outs[i].nodes, 1))
	}
	for mi, mix := range mixes {
		for ci, cloud := range fig3Clouds {
			base := (mi*len(fig3Clouds) + ci) * gold
			runs := make([]float64, gold)
			for i := range runs {
				runs[i] = outs[base+i].runtime
			}
			row, err := fig3Row(cloud, runs, mix.statQ)
			if err == nil {
				err = sameRow(tables[mix.id], cloud, row)
			}
			c.op("probe rebuilds "+mix.id+" row "+cloud, err)

			again, err := runFig3Job(jobs[base], newTracer(), 0)
			if err == nil && (again.n != outs[base].n || again.runtime != outs[base].runtime) {
				err = fmt.Errorf("repeat gave %+v in %v, first run %+v in %v", again.n, again.runtime, outs[base].n, outs[base].runtime)
			}
			c.op("probe repeat "+mix.id+"/"+cloud, err)
		}
	}

	var jobMs []float64
	for _, d := range tr.durations("spark.run_job") {
		jobMs = append(jobMs, ms(d))
	}
	n := float64(len(jobs))
	m["spark.jobs"] = metric{n, "count"}
	m["spark.job_ms_p50"] = metric{quantile(jobMs, 0.5), "ms"}
	m["spark.job_ms_p95"] = metric{quantile(jobMs, 0.95), "ms"}
	m["netem.rate_evals_per_job"] = metric{rate / n, "count"}
	m["netem.steps_per_job"] = metric{steps / n, "count"}
	return nil
}

// fig3Row formats one figure 3 row from a cloud's gold runs, as
// internal/figures' lowRepFigure does.
func fig3Row(cloud string, runs []float64, statQ float64) ([]string, error) {
	var s stats.Sample
	iv, err := s.Reset(runs).QuantileCI(statQ, 0.95)
	if err != nil {
		return nil, err
	}
	est3 := s.Reset(runs[:3]).Quantile(statQ)
	est10 := s.Reset(runs[:10]).Quantile(statQ)
	f1 := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	mark := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "X"
	}
	return []string{cloud, f1(iv.Estimate), f1(iv.Lo), f1(iv.Hi),
		f1(est3), mark(iv.Contains(est3)), f1(est10), mark(iv.Contains(est10))}, nil
}

func sameRow(t figures.Table, cloud string, want []string) error {
	for _, row := range t.Rows {
		if len(row) > 0 && row[0] == cloud {
			if strings.Join(row, "|") != strings.Join(want, "|") {
				return fmt.Errorf("table row %q, probe rebuilt %q", row, want)
			}
			return nil
		}
	}
	return fmt.Errorf("table %s has no row for cloud %s", t.ID, cloud)
}

// quantile is the nearest-rank quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
