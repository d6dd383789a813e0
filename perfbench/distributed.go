package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/core"
	"cloudvar/internal/expspec"
	"cloudvar/internal/fleet"
	"cloudvar/internal/shard"
	"cloudvar/internal/simrand"
	"cloudvar/internal/store"
	"cloudvar/internal/workload"
)

// distributedDoc is the distributed workload's experiment spec:
// adaptive stopping over 2 profiles × 3 regimes, one-hour cells, and a
// two-client workload replayed over every cell, as cmd/campaignd
// receives it. The 0.1% error bound is out of reach for these
// profiles (gce's full-speed group would meet it early), so every
// group grows batch by batch to its 24-repetition cap and every seed
// runs the same 144 cells: the spread across seeds then measures the
// host, not a seed-dependent campaign size.
const distributedDoc = `{
  "schemaVersion": 2,
  "name": "perfbench-distributed",
  "campaign": {
    "profiles": [
      {"cloud": "ec2", "instance": "c5.xlarge"},
      {"cloud": "hpccloud", "instance": "8"}
    ],
    "regimes": ["full-speed", "10-30", "5-30"],
    "repetitions": 24,
    "hours": 1,
    "seed": %d,
    "stopping": {"errorBound": 0.001, "maxReps": 24}
  },
  "workloads": {
    "aggregateRps": 0.5,
    "requestKB": 8192,
    "clients": [
      {"id": "web", "rateFraction": 0.7, "sloClass": "interactive", "arrival": {"process": "poisson"}},
      {"id": "etl", "rateFraction": 0.3, "sloClass": "batch", "arrival": {"process": "gamma", "cv": 2}}
    ]
  }
}`

// distributedWorkers is the number of worker servers; each owns one
// shard.
const distributedWorkers = 2

// distributedBench is cmd/campaignd's runCampaign in one process: two
// shard worker servers on loopback, reached through shard.HTTPWorker
// clients, then the merge into the coordinator's store.
type distributedBench struct {
	seed uint64
	dir  string
}

// workerServer is one worker's HTTP server on a loopback listener.
type workerServer struct {
	ws     *shard.WorkerServer
	srv    *http.Server
	url    string
	served chan error
}

type distributedPass struct {
	dir       string
	runID     string
	plan      expspec.Plan
	specKey   string
	meta      store.RunMeta
	st        *store.Store
	transport *http.Transport
	servers   []*workerServer
	workers   []shard.Worker
	result    fleet.CampaignResult
}

func (b *distributedBench) setup(i int) (fixture, error) {
	return b.setupTraced(i, nil, 0)
}

// setupTraced does what campaignd does between receiving a spec and
// running it — compile, key, fingerprint, open the store — plus
// starting the worker servers; with a tracer it records each step
// under parent and decorates the HTTP seams.
func (b *distributedBench) setupTraced(i int, tr *tracer, parent int) (*distributedPass, error) {
	p := &distributedPass{
		dir:       filepath.Join(b.dir, fmt.Sprintf("pass%d", i)),
		runID:     fmt.Sprintf("seed-%d", b.seed),
		transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}
	err := step(tr, "expspec.compile", parent, func() error {
		doc, err := expspec.Decode([]byte(fmt.Sprintf(distributedDoc, b.seed)))
		if err != nil {
			return err
		}
		if p.plan, err = expspec.Compile(doc); err != nil {
			return err
		}
		p.specKey, err = store.SpecKey(p.plan.Campaign.Spec)
		return err
	})
	if err == nil {
		err = step(tr, "fleet.fingerprint", parent, func() error {
			prints, err := fleet.FingerprintProfiles(p.plan.Campaign.Spec, core.FingerprintConfig{})
			p.meta = store.RunMeta{
				Fingerprints:       prints,
				CreatedUnix:        createdUnix,
				ExperimentSpec:     p.plan.Bytes,
				ExperimentSpecHash: p.plan.Hash,
			}
			return err
		})
	}
	if err == nil {
		err = step(tr, "store.create", parent, func() error {
			var err error
			p.st, err = store.Open(filepath.Join(p.dir, "coordinator"))
			return err
		})
	}
	for w := 0; err == nil && w < distributedWorkers; w++ {
		err = step(tr, "shard.listen", parent, func() error { return p.startWorker(w, tr) })
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// startWorker starts worker server w on a loopback port and adds its
// client; with a tracer both the handler and the client transport are
// decorated.
func (p *distributedPass) startWorker(w int, tr *tracer) error {
	dir := filepath.Join(p.dir, "worker"+strconv.Itoa(w))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ws := shard.NewWorkerServer(dir)
	handler := ws.Handler()
	if tr != nil {
		handler = tracedHandler(handler, tr)
	}
	s := &workerServer{ws: ws, srv: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	p.servers = append(p.servers, s)

	client := &shard.HTTPWorker{URL: s.url, AttemptTimeout: 2 * time.Minute, Client: &http.Client{Transport: p.transport}}
	if tr == nil {
		p.workers = append(p.workers, client)
		return nil
	}
	tw := &tracedWorker{inner: client, tr: tr}
	client.Client = &http.Client{Transport: &tracedTransport{inner: p.transport, tr: tr, parent: func() int { return int(tw.call.Load()) }}}
	p.workers = append(p.workers, tw)
	return nil
}

func (p *distributedPass) run() (int, error) {
	return p.runCampaign(nil, 0)
}

// runCampaign is campaignd's runCampaign after fingerprinting: shard
// the campaign across the workers, merge their stores into the
// coordinator's, record precision.
func (p *distributedPass) runCampaign(tr *tracer, parent int) (int, error) {
	runSpan := 0
	if tr != nil {
		runSpan = tr.start("shard.run", parent)
		for _, w := range p.workers {
			w.(*tracedWorker).parent = runSpan
		}
	}
	res, shards, err := shard.Run(shard.Campaign{
		Spec:     p.plan.Campaign.Spec,
		SpecDoc:  p.plan.Bytes,
		RunID:    p.runID,
		Meta:     p.meta,
		Workers:  p.workers,
		Fallback: &shard.InProcWorker{},
	})
	if tr != nil {
		tr.end(runSpan)
	}
	if err != nil {
		return 0, err
	}
	p.result = res
	var merged *store.Run
	err = step(tr, "store.merge", parent, func() error {
		var err error
		merged, err = store.MergeShards(p.st, p.runID, shards, p.result.StoredLabels())
		return err
	})
	if err != nil {
		return 0, err
	}
	err = step(tr, "store.close", parent, func() error {
		err := merged.RecordPrecision(p.result.Groups)
		return errors.Join(err, merged.Close())
	})
	return len(p.result.Cells), err
}

// outputs digests the keys, the result, and the merged store: the
// manifest and cells file bytes, and the cells by label.
func (p *distributedPass) outputs(c *checker) outputs {
	for _, cell := range p.result.Cells {
		c.op("cell "+cell.Cell.Label(), cell.Err)
	}
	out := outputs{"key/spec": p.specKey, "result": resultDigest(p.result)}
	matrixKey, err := store.MatrixKey(p.plan.Campaign.Spec)
	c.op("matrix key", err)
	out["key/matrix"] = matrixKey
	runDir := filepath.Join(p.st.Dir(), "runs", p.runID)
	out["merged/manifest"] = digestFile(filepath.Join(runDir, "manifest.json"))
	out["merged/cells"] = digestFile(filepath.Join(runDir, "cells.jsonl"))
	recs, err := p.st.Cells(p.runID)
	c.op("loading merged cells", err)
	out["merged/by-label"] = recordsDigest(recs)
	return out
}

// close stops the worker servers, waits for them, and removes the
// pass's stores.
func (p *distributedPass) close() {
	p.transport.CloseIdleConnections()
	for _, s := range p.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.srv.Shutdown(ctx); err != nil {
			s.srv.Close()
		}
		cancel()
		<-s.served
		s.ws.Close()
	}
	p.servers = nil
	os.RemoveAll(p.dir)
}

// warmCheck runs one untimed pass, then the cross-path check: the
// merged store must hold exactly the records an in-process
// fleet.RunCells of the same cells produces, and replaying the
// adaptive schedule over those results must rebuild the distributed
// result.
func (b *distributedBench) warmCheck(c *checker) (outputs, error) {
	p, err := b.setupTraced(0, nil, 0)
	if err != nil {
		return nil, err
	}
	defer p.close()
	if _, err := p.run(); err != nil {
		return nil, err
	}
	got := p.outputs(c)
	crossCheck(c, p, got, newTracer(), 0)
	return c.reference("distributed", b.seed, got), nil
}

// crossCheck runs the pass's cells in process with fleet.RunCells and
// compares them, by label, with the merged store; then replays the
// adaptive planner over them and compares the result. Both run in
// spans under parent.
func crossCheck(c *checker, p *distributedPass, got outputs, tr *tracer, parent int) (batches int) {
	spec := p.plan.Campaign.Spec
	cells := make([]fleet.Cell, len(p.result.Cells))
	for i, r := range p.result.Cells {
		cells[i] = r.Cell
	}
	var local []fleet.CellResult
	err := tr.timed("fleet.execute", parent, func() error {
		var err error
		local, err = fleet.RunCells(spec, cells)
		return err
	})
	if err == nil {
		var recs []store.CellRecord
		recs, err = resultRecords(fleet.CampaignResult{Cells: local})
		if err == nil {
			c.same("merged cells match in-process RunCells", got["merged/by-label"], recordsDigest(recs))
		}
	}
	c.op("in-process RunCells", err)
	if err != nil {
		return 0
	}
	byLabel := make(map[string]fleet.CellResult, len(local))
	for _, r := range local {
		byLabel[r.Cell.Label()] = r
	}
	replayed, batches, err := replayPlan(spec, byLabel, tr, parent)
	c.op("adaptive plan replay", err)
	if err == nil {
		c.same("replayed plan matches the distributed result", resultDigest(replayed), got["result"])
	}
	return batches
}

// replayPlan drives a fresh AdaptivePlanner with already-computed
// cell results, timing each Observe in a fleet.observe span and the
// final Result, which groups the cells as fleet.Assemble does, in a
// fleet.aggregate span; it returns that result and the batch count.
func replayPlan(spec fleet.CampaignSpec, byLabel map[string]fleet.CellResult, tr *tracer, parent int) (fleet.CampaignResult, int, error) {
	planner, err := fleet.NewAdaptivePlanner(spec)
	if err != nil {
		return fleet.CampaignResult{}, 0, err
	}
	batches := 0
	for {
		batch := planner.NextBatch()
		if len(batch) == 0 {
			break
		}
		batches++
		results := make([]fleet.CellResult, len(batch))
		for i, cell := range batch {
			r, ok := byLabel[cell.Label()]
			if !ok {
				return fleet.CampaignResult{}, batches, fmt.Errorf("planner scheduled %s, which the run never executed", cell.Label())
			}
			results[i] = r
		}
		if err := tr.timed("fleet.observe", parent, func() error { return planner.Observe(results) }); err != nil {
			return fleet.CampaignResult{}, batches, err
		}
	}
	var res fleet.CampaignResult
	tr.timed("fleet.aggregate", parent, func() error {
		res = planner.Result()
		return nil
	})
	return res, batches, nil
}

// traced runs the pass with every worker, its transport and its
// server handler decorated, twice: the second pass must repeat the
// first's shard counts. Then the probes: the cross-path check (timed
// as fleet.execute), the plan replay (fleet.observe and
// fleet.aggregate), the workload replay (workload.serve) and the
// summary replay (fleet.summarize).
func (b *distributedBench) traced(c *checker, tr *tracer) (outputs, map[string]metric, attribution, error) {
	out, p, err := b.tracedPass(c, tr, 1<<20)
	if err != nil {
		return nil, nil, attribution{}, err
	}
	defer p.close()
	again := newTracer()
	out2, p2, err := b.tracedPass(c, again, 1<<20+1)
	if err != nil {
		return nil, nil, attribution{}, err
	}
	p2.close()
	c.compare(out2, out)
	for _, k := range []string{"shard.execute_calls", "shard.execute_cells", "shard.wire_bytes", "shard.fetch_bytes"} {
		c.op("repeat count "+k, countIs(again.count(k), tr.count(k)))
	}

	spec := p.plan.Campaign.Spec
	probe := tr.start("probe.crosspath", 0)
	batches := crossCheck(c, p, out, tr, probe)
	tr.end(probe)
	serve := tr.start("probe.serve", 0)
	c.op("workload replay", replayWorkloads(spec, p.result, tr, serve))
	tr.end(serve)
	summarize := tr.start("probe.summarize", 0)
	c.op("summaries replay", replaySummaries(spec.Summarize, p.result, tr, summarize))
	tr.end(summarize)

	var cellsBytes float64
	if fi, err := os.Stat(filepath.Join(p.st.Dir(), "runs", p.runID, "cells.jsonl")); err == nil {
		cellsBytes = float64(fi.Size())
	}
	stored := float64(max(len(p.result.StoredLabels()), 1))

	self := tr.selfTimes()
	sum := func(name string) float64 {
		var s time.Duration
		for _, d := range tr.durations(name) {
			s += d
		}
		return s.Seconds()
	}
	calls := float64(tr.count("shard.execute_calls"))
	return out, map[string]metric{
			"expspec.compile_ms":        {ms(self["expspec.compile"]), "ms"},
			"fleet.fingerprint_ms":      {ms(self["fleet.fingerprint"]), "ms"},
			"store.create_ms":           {ms(self["store.create"]), "ms"},
			"shard.listen_ms":           {ms(self["shard.listen"]), "ms"},
			"shard.coordinator_s":       {self["shard.run"].Seconds(), "s"},
			"shard.execute_calls":       {calls, "count"},
			"shard.attempts_per_batch":  {calls / float64(max(batches, 1)), "count"},
			"shard.execute_s":           {sum("shard.execute"), "s"},
			"shard.transport_s":         {self["http.roundtrip"].Seconds(), "s"},
			"shard.handler_s":           {sum("shard.handle_execute"), "s"},
			"shard.wire_bytes_per_cell": {float64(tr.count("shard.wire_bytes")) / float64(max(tr.count("shard.execute_cells"), 1)), "B"},
			"shard.fetch_s":             {sum("shard.fetch"), "s"},
			"shard.fetch_bytes":         {float64(tr.count("shard.fetch_bytes")), "B"},
			"store.merge_s":             {self["store.merge"].Seconds(), "s"},
			"store.bytes_per_cell":      {cellsBytes / stored, "B"},
			"fleet.execute_s":           {self["fleet.execute"].Seconds(), "s"},
			"fleet.plan_s":              {self["fleet.observe"].Seconds(), "s"},
			"workload.serve_s":          {self["workload.serve"].Seconds(), "s"},
			"fleet.summarize_s":         {self["fleet.summarize"].Seconds(), "s"},
			"fleet.aggregate_s":         {self["fleet.aggregate"].Seconds(), "s"},
		}, attribution{
			self:      []string{"shard.run", "http.roundtrip", "store.merge"},
			inclusive: []string{"shard.execute", "shard.fetch"},
		}, nil
}

// tracedPass sets up and runs one decorated pass; the caller closes
// the returned pass.
func (b *distributedBench) tracedPass(c *checker, tr *tracer, i int) (outputs, *distributedPass, error) {
	setup := tr.start("setup", 0)
	p, err := b.setupTraced(i, tr, setup)
	tr.end(setup)
	if err != nil {
		return nil, nil, err
	}
	root := tr.start(passSpan, 0)
	_, err = p.runCampaign(tr, root)
	tr.end(root)
	if err != nil {
		p.close()
		return nil, nil, err
	}
	return p.outputs(c), p, nil
}

// replayWorkloads re-serves every successful cell's workload with
// cloudmodel.RunWorkload on the cell's own substreams, one
// workload.serve span per cell, and checks the metrics repeat.
func replayWorkloads(spec fleet.CampaignSpec, res fleet.CampaignResult, tr *tracer, parent int) error {
	if spec.Workload == nil {
		return nil
	}
	for _, r := range res.Cells {
		if r.Err != nil {
			continue
		}
		cell := r.Cell
		var wl *workload.CellMetrics
		err := tr.timed("workload.serve", parent, func() error {
			var err error
			wl, err = cloudmodel.RunWorkload(*spec.Workload, r.Series, cell.Profile, spec.Config, func(name string) *simrand.Source {
				return fleet.WorkloadSource(spec.Seed, cell, name)
			})
			return err
		})
		if err != nil {
			return err
		}
		if fmt.Sprintf("%+v", wl) != fmt.Sprintf("%+v", r.Workload) {
			return fmt.Errorf("cell %s: replayed workload metrics differ", cell.Label())
		}
	}
	return nil
}
