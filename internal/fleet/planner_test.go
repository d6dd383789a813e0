package fleet_test

import (
	"errors"
	"math"
	"testing"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/fleet"
	"cloudvar/internal/stats"
	"cloudvar/internal/testutil"
	"cloudvar/internal/trace"
)

// TestFixedCampaignIsOneBatch: without a stopping policy the planner
// issues the whole matrix as one batch, then an empty one, and its
// result is exactly the grouped RunCells output — no precision
// records, so fixed campaigns keep their bytes.
func TestFixedCampaignIsOneBatch(t *testing.T) {
	spec := testutil.EC2Spec(t, 7, 2)
	p, err := fleet.NewAdaptivePlanner(spec)
	if err != nil {
		t.Fatal(err)
	}
	cells := spec.Cells()
	batch := p.NextBatch()
	if len(batch) != len(cells) {
		t.Fatalf("first batch has %d cells, the matrix %d", len(batch), len(cells))
	}
	for i, c := range cells {
		if batch[i].Label() != c.Label() {
			t.Fatalf("batch cell %d is %s, want %s", i, batch[i].Label(), c.Label())
		}
	}
	if p.Scheduled() != len(cells) || p.Budget() != len(cells) {
		t.Fatalf("Scheduled %d, Budget %d; want both %d", p.Scheduled(), p.Budget(), len(cells))
	}
	results, err := fleet.RunCells(spec, batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Observe(results); err != nil {
		t.Fatal(err)
	}
	if next := p.NextBatch(); len(next) != 0 {
		t.Fatalf("fixed plan issued a second batch of %d cells", len(next))
	}
	got := p.Result()
	for _, g := range got.Groups {
		if g.Precision != nil {
			t.Fatalf("fixed group %s/%s carries a precision record", g.Instance, g.Regime)
		}
	}
	ref, err := fleet.RunCells(spec, spec.Cells())
	if err != nil {
		t.Fatal(err)
	}
	if testutil.EncodeResult(t, got) != testutil.EncodeResult(t, fleet.Assemble(spec, ref)) {
		t.Fatal("one-batch plan result differs from Assemble over RunCells")
	}
}

// TestObserveRejectsMismatchedBatch: Observe refuses results that do
// not match the outstanding batch cell for cell, and leaves the batch
// outstanding so the faithful results are still accepted.
func TestObserveRejectsMismatchedBatch(t *testing.T) {
	cases := map[string]func([]fleet.CellResult) []fleet.CellResult{
		"rep":      func(r []fleet.CellResult) []fleet.CellResult { r[0].Cell.Rep = 1; return r },
		"regime":   func(r []fleet.CellResult) []fleet.CellResult { r[0].Cell.Regime = trace.Send10R30; return r },
		"cloud":    func(r []fleet.CellResult) []fleet.CellResult { r[0].Cell.Profile.Cloud = "gce"; return r },
		"instance": func(r []fleet.CellResult) []fleet.CellResult { r[0].Cell.Profile.Instance = "c5.2xlarge"; return r },
		"short":    func(r []fleet.CellResult) []fleet.CellResult { return r[:len(r)-1] },
		"long":     func(r []fleet.CellResult) []fleet.CellResult { return append(r, r[0]) },
	}
	spec := testutil.EC2Spec(t, 7, 1)
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			p, err := fleet.NewAdaptivePlanner(spec)
			if err != nil {
				t.Fatal(err)
			}
			batch := p.NextBatch()
			if err := p.Observe(corrupt(syntheticResults(batch))); err == nil {
				t.Fatal("mismatched results accepted")
			}
			if err := p.Observe(syntheticResults(batch)); err != nil {
				t.Fatalf("faithful results rejected after a refused batch: %v", err)
			}
		})
	}
	t.Run("no outstanding batch", func(t *testing.T) {
		p, err := fleet.NewAdaptivePlanner(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Observe(nil); err == nil {
			t.Fatal("Observe before NextBatch accepted")
		}
		if err := p.Observe(syntheticResults(p.NextBatch())); err != nil {
			t.Fatal(err)
		}
		if err := p.Observe(nil); err == nil {
			t.Fatal("Observe of an already consumed batch accepted")
		}
	})
}

// syntheticResults answers a batch without simulating: each cell's
// result names the cell and carries a unit mean.
func syntheticResults(batch []fleet.Cell) []fleet.CellResult {
	out := make([]fleet.CellResult, len(batch))
	for i, c := range batch {
		out[i] = fleet.CellResult{Cell: c, Summary: stats.Summary{Mean: 1}}
	}
	return out
}

// FuzzAdaptivePlanner drives the planner with synthetic per-cell means
// and error flags drawn from each cell's substream, over 1–3 profiles
// × 1–3 regimes, fixed or stopping, and checks the schedule's
// invariants: no cell issued twice, each group's repetitions are
// 0..n-1 with n within the policy's bounds, the issued total never
// exceeds the budget, a fixed plan is one batch, and Result holds the
// issued cells in enumeration order.
func FuzzAdaptivePlanner(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(2), false, 0.05, uint8(0), uint8(4), uint64(1), 0.3, uint8(0))
	f.Add(uint8(1), uint8(2), uint8(8), true, 0.001, uint8(0), uint8(6), uint64(7), 0.5, uint8(0))
	f.Add(uint8(3), uint8(1), uint8(0), true, 0.9, uint8(3), uint8(2), uint64(3), 0.1, uint8(40))
	f.Add(uint8(2), uint8(2), uint8(5), true, 0.02, uint8(2), uint8(14), uint64(9), 1.9, uint8(200))
	f.Fuzz(func(t *testing.T, nProf, nReg, reps uint8, stopping bool, bound float64, minReps, extraReps uint8, seed uint64, spread float64, errRate uint8) {
		ec2, err := cloudmodel.EC2Profile("c5.xlarge")
		if err != nil {
			t.Fatal(err)
		}
		spec := fleet.CampaignSpec{
			Regimes:     trace.Regimes()[:1+int(nReg)%3],
			Repetitions: int(reps) % 20,
			Config:      cloudmodel.DefaultCampaignConfig(60),
			Seed:        seed,
		}
		for i := 0; i < 1+int(nProf)%3; i++ {
			p := ec2
			p.Instance = string(rune('a' + i))
			spec.Profiles = append(spec.Profiles, p)
		}
		if stopping {
			bound = math.Abs(bound) - math.Floor(math.Abs(bound))
			if math.IsNaN(bound) || bound == 0 {
				bound = 0.05
			}
			st := fleet.StoppingSpec{ErrorBound: bound, MinReps: int(minReps) % 12}
			st.MaxReps = st.EffectiveMinReps() + int(extraReps)%16
			spec.Stopping = st
		}
		if math.IsNaN(spread) || math.IsInf(spread, 0) {
			spread = 0
		}
		spread = math.Mod(math.Abs(spread), 2)

		p, err := fleet.NewAdaptivePlanner(spec)
		if err != nil {
			t.Fatalf("valid spec rejected: %v", err)
		}
		type group struct {
			profile, regime int
		}
		groupOf := func(c fleet.Cell) group {
			var g group
			for i, pr := range spec.Profiles {
				if pr.Instance == c.Profile.Instance {
					g.profile = i
				}
			}
			for i, r := range spec.Regimes {
				if r.Name == c.Regime.Name {
					g.regime = i
				}
			}
			return g
		}
		issued := make(map[string]fleet.CellResult)
		counts := make(map[group]int)
		batches := 0
		for {
			batch := p.NextBatch()
			if len(batch) == 0 {
				break
			}
			batches++
			if batches > p.Budget() {
				t.Fatalf("%d non-empty batches exceed the budget of %d cells", batches, p.Budget())
			}
			if p.Scheduled() > p.Budget() {
				t.Fatalf("scheduled %d cells, budget %d", p.Scheduled(), p.Budget())
			}
			results := make([]fleet.CellResult, len(batch))
			for i, c := range batch {
				label := c.Label()
				if _, dup := issued[label]; dup {
					t.Fatalf("cell %s issued twice", label)
				}
				g := groupOf(c)
				if c.Rep != counts[g] {
					t.Fatalf("cell %s issued after %d repetitions of its group", label, counts[g])
				}
				counts[g]++
				src := fleet.CellSource(seed, c)
				res := fleet.CellResult{Cell: c, Summary: stats.Summary{Mean: 1 + spread*src.Float64()}}
				if src.Intn(256) < int(errRate) {
					res = fleet.CellResult{Cell: c, Err: errors.New("synthetic failure")}
				}
				results[i], issued[label] = res, res
			}
			if err := p.Observe(results); err != nil {
				t.Fatal(err)
			}
		}
		if spec.Stopping.IsZero() && batches != 1 {
			t.Fatalf("fixed plan ran %d batches, want 1", batches)
		}
		for g, n := range counts {
			switch {
			case spec.Stopping.IsZero() && n != spec.EffectiveRepetitions():
				t.Fatalf("fixed group %v ran %d repetitions, want %d", g, n, spec.EffectiveRepetitions())
			case !spec.Stopping.IsZero() && (n < spec.Stopping.EffectiveMinReps() || n > spec.Stopping.MaxReps):
				t.Fatalf("group %v ran %d repetitions, want within [%d, %d]", g, n, spec.Stopping.EffectiveMinReps(), spec.Stopping.MaxReps)
			}
		}
		res := p.Result()
		if len(res.Cells) != p.Scheduled() || len(res.Cells) != len(issued) {
			t.Fatalf("result holds %d cells, scheduled %d, issued %d", len(res.Cells), p.Scheduled(), len(issued))
		}
		prev := group{-1, -1}
		prevRep := 0
		for i, c := range res.Cells {
			want, ok := issued[c.Cell.Label()]
			if !ok || want.Summary != c.Summary || (want.Err == nil) != (c.Err == nil) {
				t.Fatalf("result cell %d (%s) is not the observed result", i, c.Cell.Label())
			}
			g := groupOf(c.Cell)
			if g == prev {
				if c.Cell.Rep != prevRep+1 {
					t.Fatalf("result cell %d (%s) breaks repetition order", i, c.Cell.Label())
				}
			} else if c.Cell.Rep != 0 || g.profile < prev.profile || (g.profile == prev.profile && g.regime < prev.regime) {
				t.Fatalf("result cell %d (%s) breaks enumeration order", i, c.Cell.Label())
			}
			prev, prevRep = g, c.Cell.Rep
		}
		for _, g := range res.Groups {
			if (g.Precision == nil) != spec.Stopping.IsZero() {
				t.Fatalf("group %s/%s precision %v with stopping %+v", g.Instance, g.Regime, g.Precision, spec.Stopping)
			}
		}
	})
}
