package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"cloudvar/internal/core"
	"cloudvar/internal/expspec"
	"cloudvar/internal/fleet"
	"cloudvar/internal/longitudinal"
	"cloudvar/internal/stats"
	"cloudvar/internal/store"
)

// createdUnix is the creation time every benchmark run records, so
// manifests are byte-stable across passes and hosts.
const createdUnix = 1_700_000_000

// campaignDoc is the campaign workload's experiment spec: 3 profiles ×
// 3 regimes × 100 repetitions of 0.05 emulated hours, exact summaries,
// persisted into a columnar store, as cmd/cloudbench runs it.
const campaignDoc = `{
  "schemaVersion": 2,
  "name": "perfbench-campaign",
  "campaign": {
    "profiles": [
      {"cloud": "ec2", "instance": "c5.xlarge"},
      {"cloud": "gce", "instance": "8"},
      {"cloud": "hpccloud", "instance": "8"}
    ],
    "regimes": ["full-speed", "10-30", "5-30"],
    "repetitions": 100,
    "hours": 0.05,
    "seed": %d
  },
  "store": {"dir": %q, "runId": %q, "encoding": "columnar"}
}`

// campaignBench runs the campaign at two seeds, the way two days of
// cmd/cloudbench -store would, then compares them as cmd/drift does.
type campaignBench struct {
	seed    uint64
	dir     string
	workers int
}

// campaignRun is one seed's compiled campaign and its open store run.
type campaignRun struct {
	id     string
	plan   expspec.Plan
	run    *store.Run
	result fleet.CampaignResult
}

type campaignPass struct {
	dir    string
	st     *store.Store
	runs   []*campaignRun
	report bytes.Buffer
}

func (b *campaignBench) setup(i int) (fixture, error) {
	return b.setupTraced(i, nil, 0)
}

// setupTraced compiles both seeds' specs, fingerprints their profiles
// and creates their store runs; with a tracer it records each step
// under parent.
func (b *campaignBench) setupTraced(i int, tr *tracer, parent int) (*campaignPass, error) {
	p := &campaignPass{dir: filepath.Join(b.dir, fmt.Sprintf("pass%d", i))}
	for _, seed := range []uint64{b.seed, b.seed + 1} {
		r := &campaignRun{id: fmt.Sprintf("seed-%d", seed)}
		err := step(tr, "expspec.compile", parent, func() error {
			doc, err := expspec.Decode([]byte(fmt.Sprintf(campaignDoc, seed, p.dir, r.id)))
			if err != nil {
				return err
			}
			if r.plan, err = expspec.Compile(doc); err != nil {
				return err
			}
			// Scheduling only, as cmd/cloudbench's -workers.
			r.plan.Campaign.Spec.Workers = b.workers
			return nil
		})
		if err != nil {
			p.close()
			return nil, err
		}
		var prints map[string]core.Fingerprint
		err = step(tr, "fleet.fingerprint", parent, func() error {
			var err error
			prints, err = fleet.FingerprintProfiles(r.plan.Campaign.Spec, core.FingerprintConfig{})
			return err
		})
		if err == nil {
			err = step(tr, "store.create", parent, func() error {
				st, err := store.Open(r.plan.Store.Dir)
				if err != nil {
					return err
				}
				p.st = st
				r.run, err = st.CreateWithMeta(r.id, r.plan.Campaign.Spec, store.RunMeta{
					Fingerprints:       prints,
					CreatedUnix:        createdUnix,
					ExperimentSpec:     r.plan.Bytes,
					ExperimentSpecHash: r.plan.Hash,
					Encoding:           r.plan.Store.Encoding,
				})
				return err
			})
		}
		if err != nil {
			p.close()
			return nil, err
		}
		p.runs = append(p.runs, r)
	}
	return p, nil
}

func (p *campaignPass) run() (int, error) {
	cells := 0
	for _, r := range p.runs {
		spec := r.plan.Campaign.Spec
		spec.Sink = r.run
		res, err := fleet.Run(spec)
		if err != nil {
			return cells, err
		}
		r.result = res
		cells += len(res.Cells)
		if err := r.run.RecordPrecision(res.Groups); err != nil {
			return cells, err
		}
		err = r.run.Close()
		r.run = nil
		if err != nil {
			return cells, err
		}
	}
	return cells, p.drift(nil, 0)
}

// drift loads both runs and renders their drift report.
func (p *campaignPass) drift(tr *tracer, parent int) error {
	var runs []longitudinal.RunData
	err := step(tr, "longitudinal.load", parent, func() error {
		var err error
		runs, err = longitudinal.Load(p.st, p.runs[0].id, p.runs[1].id)
		return err
	})
	if err != nil {
		return err
	}
	var rep *longitudinal.Report
	err = step(tr, "longitudinal.analyze", parent, func() error {
		var err error
		rep, err = longitudinal.Analyze(runs, longitudinal.Options{})
		return err
	})
	if err != nil {
		return err
	}
	return step(tr, "longitudinal.report", parent, func() error { return rep.WriteMarkdown(&p.report) })
}

// outputs digests each run's result, keys and stored cells, and the
// drift report. Stored cells are compared by label, not by file
// bytes: an unsharded run appends cells in completion order, which
// varies with scheduling at more than one worker (a known defect of
// the store, outside this benchmark's gate).
func (p *campaignPass) outputs(c *checker) outputs {
	out := make(outputs)
	for i, r := range p.runs {
		tag := string(rune('A' + i))
		for _, cell := range r.result.Cells {
			c.op("cell "+cell.Cell.Label(), cell.Err)
		}
		spec := r.plan.Campaign.Spec
		specKey, err := store.SpecKey(spec)
		c.op("spec key "+tag, err)
		matrixKey, err := store.MatrixKey(spec)
		c.op("matrix key "+tag, err)
		out["key/spec/"+tag] = specKey
		out["key/matrix/"+tag] = matrixKey
		out["result/"+tag] = resultDigest(r.result)
		stored, err := p.st.Cells(r.id)
		c.op("loading stored cells "+tag, err)
		out["cells/"+tag] = recordsDigest(stored)
		fromResult, err := resultRecords(r.result)
		c.op("records of result "+tag, err)
		c.same("stored cells "+tag+" match the result", out["cells/"+tag], recordsDigest(fromResult))
	}
	out["report"] = digest(p.report.Bytes())
	return out
}

func (p *campaignPass) close() {
	for _, r := range p.runs {
		if r.run != nil {
			r.run.Close()
		}
	}
	os.RemoveAll(p.dir)
}

// warmCheck runs one untimed pass; its outputs (or the recorded ones)
// are the reference. Every pass checks its store against its result.
func (b *campaignBench) warmCheck(c *checker) (outputs, error) {
	fx, err := b.setup(0)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	if _, err := fx.run(); err != nil {
		return nil, err
	}
	return c.reference("campaign", b.seed, fx.outputs(c)), nil
}

// traced runs each campaign as fleet.RunCells plus fleet.Assemble —
// the two public halves of fleet.Run — with the store run behind a
// timing Sink, then the drift analysis, then replays every cell's
// summary through fleet.SummarizeStored.
func (b *campaignBench) traced(c *checker, tr *tracer) (outputs, map[string]metric, attribution, error) {
	setup := tr.start("setup", 0)
	p, err := b.setupTraced(1<<20, tr, setup)
	tr.end(setup)
	if err != nil {
		return nil, nil, attribution{}, err
	}
	defer p.close()
	root := tr.start(passSpan, 0)
	cells := 0
	for _, r := range p.runs {
		spec := r.plan.Campaign.Spec
		exec := tr.start("fleet.execute", root)
		spec.Sink = tracedSink{inner: r.run, tr: tr, parent: exec}
		results, err := fleet.RunCells(spec, spec.Cells())
		tr.end(exec)
		if err != nil {
			return nil, nil, attribution{}, err
		}
		tr.timed("fleet.aggregate", root, func() error {
			r.result = fleet.Assemble(spec, results)
			return nil
		})
		cells += len(results)
		err = tr.timed("store.close", root, func() error {
			if err := r.run.RecordPrecision(r.result.Groups); err != nil {
				return err
			}
			err := r.run.Close()
			r.run = nil
			return err
		})
		if err != nil {
			return nil, nil, attribution{}, err
		}
	}
	if err := p.drift(tr, root); err != nil {
		return nil, nil, attribution{}, err
	}
	tr.end(root)
	out := p.outputs(c)

	var storedBytes int64
	for _, r := range p.runs {
		if fi, err := os.Stat(filepath.Join(p.dir, "runs", r.id, "cells.col")); err == nil {
			storedBytes += fi.Size()
		}
	}
	c.op("one Put per cell", countIs(int64(len(tr.durations("store.put"))), int64(cells)))
	summarize := tr.start("probe.summarize", 0)
	for _, r := range p.runs {
		c.op("summaries replay", replaySummaries(r.plan.Campaign.Spec.Summarize, r.result, tr, summarize))
	}
	tr.end(summarize)

	self := tr.selfTimes()
	return out, map[string]metric{
		"expspec.compile_ms":     {ms(self["expspec.compile"]), "ms"},
		"fleet.fingerprint_ms":   {ms(self["fleet.fingerprint"]), "ms"},
		"store.create_ms":        {ms(self["store.create"]), "ms"},
		"fleet.execute_s":        {self["fleet.execute"].Seconds(), "s"},
		"store.put_s":            {self["store.put"].Seconds(), "s"},
		"fleet.aggregate_s":      {self["fleet.aggregate"].Seconds(), "s"},
		"longitudinal.load_s":    {self["longitudinal.load"].Seconds(), "s"},
		"longitudinal.analyze_s": {self["longitudinal.analyze"].Seconds(), "s"},
		"fleet.summarize_s":      {self["fleet.summarize"].Seconds(), "s"},
		"store.bytes_per_cell":   {float64(storedBytes) / float64(max(cells, 1)), "B"},
	}, attribution{self: []string{"fleet.execute", "store.put", "fleet.aggregate", "longitudinal.load", "longitudinal.analyze"}}, nil
}

// replaySummaries recomputes every successful cell's summary with
// fleet.SummarizeStored, inside one span, and checks each prints the
// same as the summary the run produced (NaN fields never compare
// equal).
func replaySummaries(mode fleet.SummarizeMode, res fleet.CampaignResult, tr *tracer, parent int) error {
	sums := make([]stats.Summary, len(res.Cells))
	id := tr.start("fleet.summarize", parent)
	for i, cell := range res.Cells {
		if cell.Err == nil {
			sums[i] = fleet.SummarizeStored(mode, cell.Series)
		}
	}
	tr.end(id)
	for i, cell := range res.Cells {
		if cell.Err == nil && fmt.Sprint(sums[i]) != fmt.Sprint(cell.Summary) {
			return fmt.Errorf("cell %s: replayed summary differs", cell.Cell.Label())
		}
	}
	return nil
}

func countIs(got, want int64) error {
	if got != want {
		return fmt.Errorf("counted %d, want %d", got, want)
	}
	return nil
}
