package fleet

import (
	"fmt"
	"math"

	"cloudvar/internal/cloudmodel"
	"cloudvar/internal/confirm"
	"cloudvar/internal/trace"
)

// Campaign scheduling: the CONFIRM analysis (internal/confirm)
// promoted from post-hoc reporting into the scheduler itself, per the
// paper's §5 methodology. Fixed repetition counts are the central
// failure mode the paper warns about — short campaigns reach wrong
// conclusions where variance is high, long ones waste budget where it
// is low — so when CampaignSpec.Stopping is active, repetition counts
// are decided by achieved CI precision instead. A fixed campaign is
// the degenerate plan: one batch holding the whole matrix, with no
// stopping decision after it. Every campaign, local or sharded, runs
// through the same planner.
//
// Determinism contract: the stopping decision is derived only from
// cell substreams and arrival-order-independent group state. Cells run
// in batches with a barrier between rounds; within a round, per-group
// trackers are fed in repetition order after *all* of the round's
// cells finished, never in completion order. Every quantity the
// schedule depends on (summaries, trackers, budget arithmetic) is a
// pure function of (spec minus Workers/Progress/Sink), so runs are
// bit-identical at any worker count and across resume — the schedule
// included.
//
// The schedule lives in AdaptivePlanner, a feed-forward state machine
// (NextBatch → execute anywhere → Observe, repeat): Run drives it with
// the local worker pool, and a distributed coordinator (internal/shard)
// drives the identical machine with cells executed on remote workers —
// the batch barrier becomes the coordinator's synchronization point,
// and because the planner never sees *where* a cell ran, the schedule
// (and therefore every result byte) matches the single-process run.

// adaptiveGroup is the scheduler's per-(profile, regime) state.
type adaptiveGroup struct {
	profile cloudmodel.Profile
	regime  trace.Regime
	// results holds the group's cells in repetition order. After the
	// first batch it is a cap-limited window of that batch's results,
	// so a later append copies instead of overwriting the next group.
	results []CellResult
	// target is the repetition count the next batch grows the group to.
	target int
	// tracker accumulates each successful repetition's summary mean;
	// nil for a fixed campaign, which makes no stopping decision.
	tracker *confirm.Tracker
	// stopped marks a group the policy will not grow again: its CI
	// converged or it hit MaxReps.
	stopped bool
}

// AdaptivePlanner is the campaign schedule as an explicit state
// machine. Repeatedly take NextBatch, execute its cells by any means
// that honors the per-cell substream contract (the local pool,
// RunCells on remote shards), and feed every result of the batch back
// through Observe; when NextBatch returns an empty batch, Result holds
// the campaign outcome. Without a stopping policy the plan is a single
// batch of spec.Cells(). The batch sequence is a pure function of
// (spec minus Workers/Progress/Sink) and the observed summaries, so
// two drivers that execute cells faithfully produce bit-identical
// campaigns.
type AdaptivePlanner struct {
	spec          CampaignSpec
	groups        []adaptiveGroup
	budget, spent int
	maxReps       int
	// batch holds the outstanding batch between NextBatch and Observe;
	// ready distinguishes "not yet gathered" from "gathered and empty"
	// (campaign complete).
	batch []Cell
	ready bool
	// first is the first observed batch's results: while it is the
	// only one, it is the campaign's cells in enumeration order.
	first []CellResult
}

// NewAdaptivePlanner validates the spec and builds the scheduler state
// for it: its stopping policy, or one batch of the whole matrix when
// Stopping is zero.
func NewAdaptivePlanner(spec CampaignSpec) (*AdaptivePlanner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return newPlanner(spec), nil
}

// newPlanner builds the planner for an already-validated spec. A zero
// Stopping reads as min = max = EffectiveRepetitions with no tracker,
// so the first batch is the matrix and Observe stops every group.
func newPlanner(spec CampaignSpec) *AdaptivePlanner {
	st := spec.Stopping
	minReps, maxReps := spec.EffectiveRepetitions(), spec.EffectiveRepetitions()
	if !st.IsZero() {
		minReps, maxReps = st.EffectiveMinReps(), st.MaxReps
	}
	regimes := spec.EffectiveRegimes()
	groups := make([]adaptiveGroup, 0, len(spec.Profiles)*len(regimes))
	for _, p := range spec.Profiles {
		for _, r := range regimes {
			g := adaptiveGroup{profile: p, regime: r, target: minReps}
			if !st.IsZero() {
				// Parameters were validated with the spec; a tracker
				// error here would be a programming error, so surface
				// it loudly.
				tr, err := confirm.NewTracker(st.EffectiveQuantile(), st.EffectiveConfidence(), st.ErrorBound)
				if err != nil {
					panic(fmt.Sprintf("fleet: stopping spec validated but tracker rejected it: %v", err))
				}
				g.tracker = tr
			}
			groups = append(groups, g)
		}
	}
	return &AdaptivePlanner{
		spec:    spec,
		groups:  groups,
		maxReps: maxReps,
		// The campaign-wide repetition budget. Every group starts at
		// the minimum; what converged groups leave unspent is
		// reallocated to the unconverged ones, up to MaxReps each.
		budget: spec.EffectiveBudget() * len(groups),
	}
}

// Budget returns the campaign-wide repetition budget — an upper bound
// on the total cells the schedule can ever issue, useful for sizing
// worker arenas upfront.
func (p *AdaptivePlanner) Budget() int { return p.budget }

// Scheduled returns the number of cells issued so far: consumed
// batches plus the outstanding one. It is the Progress total a driver
// should report.
func (p *AdaptivePlanner) Scheduled() int { return p.spent + len(p.batch) }

// NextBatch returns the next deterministic batch of cells — per group,
// the repetitions between the current count and its target, in
// enumeration order — or an empty batch when the campaign is
// complete. The same batch is returned until Observe consumes it.
func (p *AdaptivePlanner) NextBatch() []Cell {
	if !p.ready {
		n := 0
		for _, g := range p.groups {
			n += g.target - len(g.results)
		}
		p.batch = make([]Cell, 0, n)
		for _, g := range p.groups {
			for rep := len(g.results); rep < g.target; rep++ {
				p.batch = append(p.batch, Cell{Profile: g.profile, Regime: g.regime, Rep: rep})
			}
		}
		p.ready = true
	}
	return p.batch
}

// Observe consumes the outstanding batch's results — one per cell, in
// batch order — then makes the round's stopping decisions and
// reallocates unspent budget to the unconverged groups. Results feed
// the group trackers in repetition order only here, after the whole
// batch finished: the barrier that keeps the schedule independent of
// completion order. The planner keeps the results slice, so the
// caller must not modify it afterwards.
func (p *AdaptivePlanner) Observe(results []CellResult) error {
	if !p.ready {
		return fmt.Errorf("fleet: Observe without an outstanding batch")
	}
	if len(results) != len(p.batch) {
		return fmt.Errorf("fleet: observed %d results for a batch of %d", len(results), len(p.batch))
	}
	for i, res := range results {
		if !sameCell(res.Cell, p.batch[i]) {
			return fmt.Errorf("fleet: result %d is cell %s, batch expects %s", i, res.Cell.Label(), p.batch[i].Label())
		}
	}
	if p.spent == 0 {
		p.first = results
	}
	// Each group's new results are a contiguous run of the batch.
	i := 0
	for gi := range p.groups {
		g := &p.groups[gi]
		n := g.target - len(g.results)
		fresh := results[i : i+n : i+n]
		i += n
		if len(g.results) == 0 {
			g.results = fresh
		} else {
			g.results = append(g.results, fresh...)
		}
		if g.tracker != nil {
			for _, res := range fresh {
				if res.Err == nil {
					g.tracker.Push(res.Summary.Mean)
				}
			}
		}
	}
	p.spent += len(results)
	p.batch, p.ready = nil, false

	// Stopping decisions, then budget reallocation over whatever is
	// still unconverged. The MaxReps check comes first, so a fixed
	// plan stops after its one batch without consulting a tracker.
	var open []int
	for gi := range p.groups {
		g := &p.groups[gi]
		if g.stopped {
			continue
		}
		if len(g.results) >= p.maxReps {
			g.stopped = true
			continue
		}
		if pt, ok := g.tracker.Latest(); ok && pt.WithinBound {
			g.stopped = true
			continue
		}
		open = append(open, gi)
	}
	remaining := p.budget - p.spent
	if len(open) == 0 || remaining <= 0 {
		return nil
	}
	base, extra := remaining/len(open), remaining%len(open)
	for idx, gi := range open {
		share := base
		if idx < extra {
			share++
		}
		if share == 0 {
			continue
		}
		g := &p.groups[gi]
		n := len(g.results)
		// CONFIRM's c/sqrt(n) extrapolation guides the next target;
		// when it has no usable prediction, grow geometrically (×1.5)
		// so a stubborn group converges in O(log MaxReps) rounds.
		want := g.tracker.Analysis().RequiredRepetitions()
		if want <= n {
			want = n + (n+1)/2
		}
		add := want - n
		if add > share {
			add = share
		}
		if n+add > p.maxReps {
			add = p.maxReps - n
		}
		if add <= 0 {
			continue
		}
		g.target = n + add
	}
	return nil
}

// sameCell reports whether a and b name the same cell, field by field
// — the parts of Label that identify a cell within one spec.
func sameCell(a, b Cell) bool {
	return a.Rep == b.Rep && a.Regime.Name == b.Regime.Name &&
		a.Profile.Cloud == b.Profile.Cloud && a.Profile.Instance == b.Profile.Instance
}

// Result assembles the campaign outcome: cells in enumeration order
// (profiles outermost, then regimes, then each group's repetitions
// 0..n-1), group aggregates and, when stopping is active, each group's
// achieved CI precision. A one-batch campaign's cells are the observed
// slice itself, already in enumeration order.
func (p *AdaptivePlanner) Result() CampaignResult {
	cells := p.first
	if len(cells) != p.spent {
		cells = make([]CellResult, 0, p.spent)
		for _, g := range p.groups {
			cells = append(cells, g.results...)
		}
	}
	result := Assemble(p.spec, cells)
	if p.spec.Stopping.IsZero() {
		return result
	}
	// groupResults builds groups in first-cell-encounter order, which
	// is exactly the scheduler's enumeration order, so precision
	// attaches 1:1.
	for gi := range result.Groups {
		result.Groups[gi].Precision = p.groups[gi].precision()
	}
	return result
}

// precision snapshots the group's achieved CI state.
func (g *adaptiveGroup) precision() *GroupPrecision {
	p := &GroupPrecision{N: len(g.results), HalfWidth: -1, RelErr: -1}
	an := g.tracker.Analysis()
	p.Diverging = an.Diverging()
	if pt, ok := g.tracker.Latest(); ok && !math.IsNaN(pt.Lo) {
		p.HalfWidth = (pt.Hi - pt.Lo) / 2
		p.Converged = pt.WithinBound
		// A zero quantile estimate makes RelErr non-finite; keep the
		// -1 sentinel so the record stays JSON-encodable everywhere.
		if !math.IsInf(pt.RelErr, 0) && !math.IsNaN(pt.RelErr) {
			p.RelErr = pt.RelErr
		}
	}
	return p
}
