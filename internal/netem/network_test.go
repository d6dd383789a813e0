package netem

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cloudvar/internal/simrand"
	"cloudvar/internal/tokenbucket"
)

func fixedNIC(t *testing.T, n *Network, name string, gbps float64) *NIC {
	t.Helper()
	nic, err := n.AddNIC(name, &FixedShaper{RateGbps: gbps}, gbps)
	if err != nil {
		t.Fatal(err)
	}
	return nic
}

func TestSingleFlowCompletion(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "a", 10)
	fixedNIC(t, n, "b", 10)
	var doneAt float64
	_, err := n.StartFlow("a", "b", 100, math.Inf(1), func(now float64) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	n.RunWhileActive(1e6)
	// 100 Gbit at 10 Gbps = 10 s.
	if math.Abs(doneAt-10) > 1e-6 {
		t.Errorf("flow completed at %g, want 10", doneAt)
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("%d flows still active", n.ActiveFlows())
	}
}

func TestTwoFlowsShareEgress(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "src", 10)
	fixedNIC(t, n, "d1", 10)
	fixedNIC(t, n, "d2", 10)
	var t1, t2 float64
	_, _ = n.StartFlow("src", "d1", 50, math.Inf(1), func(now float64) { t1 = now })
	_, _ = n.StartFlow("src", "d2", 50, math.Inf(1), func(now float64) { t2 = now })
	n.RunWhileActive(1e6)
	// Each flow gets 5 Gbps: 10 s each.
	if math.Abs(t1-10) > 1e-6 || math.Abs(t2-10) > 1e-6 {
		t.Errorf("completions at %g, %g; want 10, 10", t1, t2)
	}
}

func TestMaxMinUnusedShareRedistributed(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "src", 10)
	fixedNIC(t, n, "d1", 10)
	fixedNIC(t, n, "d2", 10)
	// Flow 1 capped at 2 Gbps by its own demand; flow 2 greedy.
	// Max-min should give flow 2 the remaining 8 Gbps, not 5.
	f1, _ := n.StartFlow("src", "d1", 1000, 2, nil)
	f2, _ := n.StartFlow("src", "d2", 1000, math.Inf(1), nil)
	n.RunUntil(1)
	if math.Abs(f1.Rate()-2) > 1e-9 {
		t.Errorf("capped flow rate = %g, want 2", f1.Rate())
	}
	if math.Abs(f2.Rate()-8) > 1e-9 {
		t.Errorf("greedy flow rate = %g, want 8 (max-min)", f2.Rate())
	}
}

func TestIngressBottleneck(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "s1", 10)
	fixedNIC(t, n, "s2", 10)
	// Destination ingress is 10; two senders converge.
	fixedNIC(t, n, "dst", 10)
	f1, _ := n.StartFlow("s1", "dst", 1000, math.Inf(1), nil)
	f2, _ := n.StartFlow("s2", "dst", 1000, math.Inf(1), nil)
	n.RunUntil(1)
	if math.Abs(f1.Rate()-5) > 1e-9 || math.Abs(f2.Rate()-5) > 1e-9 {
		t.Errorf("converging rates = %g, %g; want 5, 5", f1.Rate(), f2.Rate())
	}
}

func TestFlowConservation(t *testing.T) {
	// Volume accounting: moved bytes equal flow sizes at completion.
	n := NewNetwork()
	src := fixedNIC(t, n, "src", 10)
	fixedNIC(t, n, "dst", 10)
	_, _ = n.StartFlow("src", "dst", 123.25, math.Inf(1), nil)
	n.RunWhileActive(1e6)
	if math.Abs(src.MovedGbit()-123.25) > 1e-6 {
		t.Errorf("NIC moved %g Gbit, want 123.25", src.MovedGbit())
	}
}

func TestTokenBucketThrottleMidFlow(t *testing.T) {
	n := NewNetwork()
	sh, err := NewBucketShaper(tokenbucket.Params{
		BudgetGbit: 90, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNIC("src", sh, 10); err != nil {
		t.Fatal(err)
	}
	fixedNIC(t, n, "dst", 10)
	var doneAt float64
	_, _ = n.StartFlow("src", "dst", 150, math.Inf(1), func(now float64) { doneAt = now })
	n.RunWhileActive(1e6)
	// High phase: bucket empties after 90/(10-1) = 10 s, moving 100
	// Gbit. Remaining 50 Gbit at 1 Gbps: 50 s. Total 60 s.
	if math.Abs(doneAt-60) > 0.1 {
		t.Errorf("throttled flow completed at %g, want ~60", doneAt)
	}
}

func TestSampledShaperResampling(t *testing.T) {
	dist := simrand.MustQuantileDist(
		[]float64{0.01, 0.5, 0.99},
		[]float64{2, 5, 9},
	)
	src := simrand.New(33)
	sh, err := NewSampledShaper(dist, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for i := 0; i < 20; i++ {
		seen[sh.CurrentCapacity()] = true
		sh.Idle(5)
	}
	if len(seen) < 5 {
		t.Errorf("capacity barely changed across periods: %d distinct values", len(seen))
	}
	for c := range seen {
		if c < 2 || c > 9 {
			t.Errorf("capacity %g outside distribution support", c)
		}
	}
}

func TestSampledShaperErrors(t *testing.T) {
	dist := simrand.MustQuantileDist([]float64{0.1, 0.9}, []float64{1, 2})
	src := simrand.New(1)
	if _, err := NewSampledShaper(nil, 5, src); err == nil {
		t.Error("nil dist should error")
	}
	if _, err := NewSampledShaper(dist, 0, src); err == nil {
		t.Error("zero period should error")
	}
	if _, err := NewSampledShaper(dist, 5, nil); err == nil {
		t.Error("nil source should error")
	}
}

func TestNetworkValidation(t *testing.T) {
	n := NewNetwork()
	if _, err := n.AddNIC("a", nil, 10); err == nil {
		t.Error("nil shaper should error")
	}
	if _, err := n.AddNIC("a", &FixedShaper{RateGbps: 1}, 0); err == nil {
		t.Error("zero ingress should error")
	}
	if _, err := n.AddNIC("a", &FixedShaper{RateGbps: 1}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddNIC("a", &FixedShaper{RateGbps: 1}, 10); err == nil {
		t.Error("duplicate NIC should error")
	}
	if _, err := n.StartFlow("a", "missing", 1, 1, nil); err == nil {
		t.Error("unknown dst should error")
	}
	if _, err := n.StartFlow("missing", "a", 1, 1, nil); err == nil {
		t.Error("unknown src should error")
	}
	if _, err := n.StartFlow("a", "a", 1, 1, nil); err == nil {
		t.Error("self flow should error")
	}
	if _, err := n.AddNIC("b", &FixedShaper{RateGbps: 1}, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartFlow("a", "b", 0, 1, nil); err == nil {
		t.Error("zero size should error")
	}
	if _, err := n.StartFlow("a", "b", 1, 0, nil); err == nil {
		t.Error("zero demand should error")
	}
}

func TestRunUntilAdvancesIdleTime(t *testing.T) {
	n := NewNetwork()
	fixedNIC(t, n, "a", 10)
	n.RunUntil(100)
	if n.Now() != 100 {
		t.Errorf("idle network clock = %g", n.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("RunUntil into the past should panic")
		}
	}()
	n.RunUntil(50)
}

// TestFlowVolumeProperty: for random topologies and flow sizes, the
// sum of all NIC egress volumes equals the sum of completed flow
// sizes (fluid conservation).
func TestFlowVolumeProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 20 {
			return true
		}
		n := NewNetwork()
		if _, err := n.AddNIC("src", &FixedShaper{RateGbps: 10}, 10); err != nil {
			return false
		}
		if _, err := n.AddNIC("dst", &FixedShaper{RateGbps: 10}, 10); err != nil {
			return false
		}
		total := 0.0
		for _, s := range sizes {
			size := float64(s%500) + 1
			total += size
			if _, err := n.StartFlow("src", "dst", size, math.Inf(1), nil); err != nil {
				return false
			}
		}
		n.RunWhileActive(1e9)
		src, _ := n.NIC("src")
		return math.Abs(src.MovedGbit()-total) < 1e-3*total+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkNetworkManyFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := NewNetwork()
		for k := 0; k < 12; k++ {
			name := string(rune('a' + k))
			if _, err := n.AddNIC(name, &FixedShaper{RateGbps: 10}, 10); err != nil {
				b.Fatal(err)
			}
		}
		for k := 0; k < 12; k++ {
			src := string(rune('a' + k))
			dst := string(rune('a' + (k+1)%12))
			if _, err := n.StartFlow(src, dst, 100, math.Inf(1), nil); err != nil {
				b.Fatal(err)
			}
		}
		n.RunWhileActive(1e6)
	}
}

// referenceAssignRates is the map-based progressive filling the
// allocator replaced, kept verbatim as a test oracle: the production
// assignRates must reproduce its rates bit for bit.
func referenceAssignRates(n *Network) {
	type resource struct {
		cap   float64
		flows []*Flow
	}
	var resources []*resource
	for _, nic := range n.order {
		if len(nic.outFlows) > 0 {
			resources = append(resources, &resource{
				cap:   nic.Egress.Rate(infDemand),
				flows: nic.outFlows,
			})
		}
		if len(nic.inFlows) > 0 {
			resources = append(resources, &resource{
				cap:   nic.IngressGbps,
				flows: nic.inFlows,
			})
		}
	}

	frozen := make(map[*Flow]bool, len(n.flows))
	for _, f := range n.flows {
		f.rate = 0
	}

	for len(frozen) < len(n.flows) {
		// Increment = min over resources of remaining/unfrozen count,
		// and over flows of demand headroom.
		inc := math.Inf(1)
		for _, r := range resources {
			unfrozen := 0
			for _, f := range r.flows {
				if !frozen[f] {
					unfrozen++
				}
			}
			if unfrozen == 0 {
				continue
			}
			if share := r.cap / float64(unfrozen); share < inc {
				inc = share
			}
		}
		for _, f := range n.flows {
			if !frozen[f] {
				if head := f.demand - f.rate; head < inc {
					inc = head
				}
			}
		}
		if math.IsInf(inc, 1) || inc < 0 {
			break
		}

		// Raise unfrozen flows and charge resources.
		for _, r := range resources {
			for _, f := range r.flows {
				if !frozen[f] {
					r.cap -= inc
				}
			}
			if r.cap < 1e-12 {
				r.cap = 0
			}
		}
		for _, f := range n.flows {
			if !frozen[f] {
				f.rate += inc
			}
		}

		// Freeze flows at demand or on saturated resources.
		progressed := false
		for _, r := range resources {
			if r.cap == 0 {
				for _, f := range r.flows {
					if !frozen[f] {
						frozen[f] = true
						progressed = true
					}
				}
			}
		}
		for _, f := range n.flows {
			if !frozen[f] && f.rate >= f.demand-1e-12 {
				frozen[f] = true
				progressed = true
			}
		}
		if !progressed {
			if inc == 0 {
				// No capacity anywhere (e.g. a sampled shaper drew
				// zero): freeze everything at zero and let the step
				// bound on NextTransition move time forward.
				break
			}
		}
	}

	for _, nic := range n.order {
		agg := 0.0
		for _, f := range nic.outFlows {
			agg += f.rate
		}
		nic.lastRate = agg
	}
}

// randomNetwork builds a seeded network of 2-16 NICs mixing fixed,
// token-bucket and sampled egress shapers; some sampled shapers draw
// zero capacity much of the time. The same seed always builds an
// identical network, so two calls give lockstep twins.
func randomNetwork(t *testing.T, seed uint64) (*Network, []string) {
	t.Helper()
	src := simrand.New(seed)
	n := NewNetwork()
	names := make([]string, 2+src.Intn(15))
	zeroish := simrand.MustQuantileDist([]float64{0, 0.5, 1}, []float64{0, 0, 8})
	spread := simrand.MustQuantileDist([]float64{0.01, 0.5, 0.99}, []float64{0.5, 4, 10})
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
		var sh Shaper
		switch src.Intn(4) {
		case 0:
			sh = &FixedShaper{RateGbps: src.Uniform(1, 10)}
		case 1:
			b, err := NewBucketShaper(tokenbucket.Params{
				BudgetGbit: src.Uniform(1, 20), RefillGbps: 1,
				HighGbps: src.Uniform(5, 10), LowGbps: src.Uniform(0.5, 2),
			})
			if err != nil {
				t.Fatal(err)
			}
			sh = b
		case 2:
			s, err := NewSampledShaper(spread, src.Uniform(0.5, 5), simrand.New(seed*131+uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			sh = s
		default:
			s, err := NewSampledShaper(zeroish, src.Uniform(0.5, 5), simrand.New(seed*137+uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			sh = s
		}
		if _, err := n.AddNIC(names[i], sh, src.Uniform(2, 12)); err != nil {
			t.Fatal(err)
		}
	}
	return n, names
}

// TestAssignRatesMatchesReference steps a production network and its
// twin driven by referenceAssignRates in lockstep over random
// topologies, starting flows between steps and from completion
// callbacks, and compares every rate bit for bit after every step.
func TestAssignRatesMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		prod, names := randomNetwork(t, seed)
		ref, _ := randomNetwork(t, seed)
		var prodFlows, refFlows []*Flow
		// start begins the same flow on both networks; a flow may
		// chain a follow-up flow from its completion callback.
		var start func(n *Network, flows *[]*Flow, s, d int, gbit, demand float64, chain int)
		start = func(n *Network, flows *[]*Flow, s, d int, gbit, demand float64, chain int) {
			var done func(float64)
			if chain > 0 {
				done = func(float64) {
					start(n, flows, d, (d+chain)%len(names), gbit/2, demand, chain-1)
				}
			}
			f, err := n.StartFlow(names[s], names[d], gbit, demand, done)
			if err != nil {
				t.Fatal(err)
			}
			*flows = append(*flows, f)
		}
		drive := simrand.New(seed ^ 0x5eed)
		for step := 0; step < 150; step++ {
			if prod.ActiveFlows() == 0 || drive.Bernoulli(0.3) {
				s := drive.Intn(len(names))
				d := (s + 1 + drive.Intn(len(names)-1)) % len(names)
				gbit := drive.Uniform(0.5, 40)
				demand := math.Inf(1)
				if drive.Bernoulli(0.4) {
					demand = drive.Uniform(0.2, 6)
				}
				chain := 0
				if len(names) > 2 && drive.Bernoulli(0.3) {
					chain = 1 + drive.Intn(len(names)-2)
				}
				start(prod, &prodFlows, s, d, gbit, demand, chain)
				start(ref, &refFlows, s, d, gbit, demand, chain)
			}
			if drive.Bernoulli(0.05) {
				// IngressGbps is an exported field: a change must
				// reach the next step like a shaper's.
				name, gbps := names[drive.Intn(len(names))], drive.Uniform(2, 12)
				a, _ := prod.NIC(name)
				b, _ := ref.NIC(name)
				a.IngressGbps, b.IngressGbps = gbps, gbps
			}
			horizon := drive.Uniform(0.1, 5)
			dtProd := prod.step(horizon)
			referenceAssignRates(ref)
			dtRef := ref.advance(horizon)

			if math.Float64bits(dtProd) != math.Float64bits(dtRef) {
				t.Fatalf("seed %d step %d: dt %v vs reference %v", seed, step, dtProd, dtRef)
			}
			if len(prodFlows) != len(refFlows) || prod.ActiveFlows() != ref.ActiveFlows() {
				t.Fatalf("seed %d step %d: flow sets diverged", seed, step)
			}
			for i, f := range prodFlows {
				if math.Float64bits(f.Rate()) != math.Float64bits(refFlows[i].Rate()) {
					t.Fatalf("seed %d step %d flow %d: rate %v vs reference %v",
						seed, step, i, f.Rate(), refFlows[i].Rate())
				}
			}
			for _, name := range names {
				a, _ := prod.NIC(name)
				b, _ := ref.NIC(name)
				if math.Float64bits(a.CurrentRateGbps()) != math.Float64bits(b.CurrentRateGbps()) ||
					math.Float64bits(a.MovedGbit()) != math.Float64bits(b.MovedGbit()) {
					t.Fatalf("seed %d step %d NIC %s: rate %v moved %v vs reference %v, %v", seed, step, name,
						a.CurrentRateGbps(), a.MovedGbit(), b.CurrentRateGbps(), b.MovedGbit())
				}
			}
		}
	}
}

// TestAssignRatesFollowsCapacityWithoutChurn pins the skip of
// unchanged steps: with the flow set fixed, a token bucket flipping
// regime or a sampled shaper redrawing must still move the rates.
func TestAssignRatesFollowsCapacityWithoutChurn(t *testing.T) {
	t.Run("bucket", func(t *testing.T) {
		n := NewNetwork()
		sh, err := NewBucketShaper(tokenbucket.Params{
			BudgetGbit: 20, RefillGbps: 1, HighGbps: 10, LowGbps: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddNIC("src", sh, 10); err != nil {
			t.Fatal(err)
		}
		fixedNIC(t, n, "dst", 20)
		f, _ := n.StartFlow("src", "dst", 1e6, math.Inf(1), nil)
		n.step(1)
		if f.Rate() != 10 {
			t.Fatalf("rate before the bucket drains = %g, want 10", f.Rate())
		}
		for i := 0; i < 10 && !sh.Bucket.Throttled(); i++ {
			n.step(1)
		}
		if !sh.Bucket.Throttled() {
			t.Fatal("bucket never throttled")
		}
		n.step(1)
		if f.Rate() != 1 {
			t.Errorf("rate after the bucket flipped = %g, want 1", f.Rate())
		}
	})
	t.Run("sampled", func(t *testing.T) {
		n := NewNetwork()
		dist := simrand.MustQuantileDist([]float64{0.01, 0.5, 0.99}, []float64{1, 5, 9})
		sh, err := NewSampledShaper(dist, 1, simrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.AddNIC("src", sh, 100); err != nil {
			t.Fatal(err)
		}
		fixedNIC(t, n, "dst", 100)
		f, _ := n.StartFlow("src", "dst", 1e6, math.Inf(1), nil)
		seen := map[float64]bool{}
		for i := 0; i < 20; i++ {
			want := sh.CurrentCapacity()
			n.step(1)
			if f.Rate() != want {
				t.Fatalf("step %d: rate %g, want the current draw %g", i, f.Rate(), want)
			}
			seen[want] = true
		}
		if len(seen) < 5 {
			t.Errorf("only %d distinct draws in 20 periods", len(seen))
		}
	})
}

// countingRateShaper counts Rate calls on the shaper it wraps.
type countingRateShaper struct {
	Shaper
	calls *int
}

func (c countingRateShaper) Rate(demand float64) float64 {
	*c.calls++
	return c.Shaper.Rate(demand)
}

// TestAssignRatesAsksEachActiveEgressOnce pins the shaper-facing
// contract the skip keeps: every step asks each NIC with outbound
// flows for its rate exactly once, whether or not it recomputes.
func TestAssignRatesAsksEachActiveEgressOnce(t *testing.T) {
	n := NewNetwork()
	calls := make([]int, 6)
	dist := simrand.MustQuantileDist([]float64{0.01, 0.99}, []float64{2, 8})
	for i := range calls {
		var inner Shaper = &FixedShaper{RateGbps: 10}
		if i%2 == 1 {
			s, err := NewSampledShaper(dist, 0.7, simrand.New(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			inner = s
		}
		if _, err := n.AddNIC(fmt.Sprintf("n%d", i), countingRateShaper{inner, &calls[i]}, 10); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := n.StartFlow(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+3), float64(5*(i+1)), math.Inf(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; n.ActiveFlows() > 0; step++ {
		before := append([]int(nil), calls...)
		active := make([]bool, len(calls))
		for i := range calls {
			nic, _ := n.NIC(fmt.Sprintf("n%d", i))
			active[i] = len(nic.outFlows) > 0
		}
		n.step(100)
		for i := range calls {
			want := 0
			if active[i] {
				want = 1
			}
			if got := calls[i] - before[i]; got != want {
				t.Fatalf("step %d NIC n%d: %d Rate calls, want %d", step, i, got, want)
			}
		}
	}
}

// shuffleNetwork builds a Spark-shuffle-shaped network: 16 NICs with
// an infinite-demand flow between every ordered pair.
func shuffleNetwork(tb testing.TB, sampled bool) *Network {
	tb.Helper()
	n := NewNetwork()
	dist := simrand.MustQuantileDist([]float64{0.01, 0.5, 0.99}, []float64{1, 5, 10})
	for i := 0; i < 16; i++ {
		var sh Shaper = &FixedShaper{RateGbps: 10}
		if sampled {
			s, err := NewSampledShaper(dist, 0.5, simrand.New(uint64(i+1)))
			if err != nil {
				tb.Fatal(err)
			}
			sh = s
		}
		if _, err := n.AddNIC(fmt.Sprintf("n%d", i), sh, 10); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			if i != j {
				if _, err := n.StartFlow(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j), 1e9, math.Inf(1), nil); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return n
}

// TestSteadyStepAllocationFree: a step with no flow churn allocates
// nothing, whether the capacities hold (the skip) or a sampled shaper
// redraws (a full recompute over the reused arena).
func TestSteadyStepAllocationFree(t *testing.T) {
	for _, sampled := range []bool{false, true} {
		// Every step spans a whole redraw period, so with sampled
		// shapers every step recomputes.
		n := shuffleNetwork(t, sampled)
		n.step(1)
		if allocs := testing.AllocsPerRun(100, func() { n.step(1) }); allocs != 0 {
			t.Errorf("sampled=%v: %v allocs per steady-state step, want 0", sampled, allocs)
		}
	}
}

// BenchmarkAssignRates measures one full max-min recompute over a
// Spark-shuffle-shaped network (16 NICs, all-to-all greedy flows).
// Each iteration marks the flow set changed, so the skip never fires.
func BenchmarkAssignRates(b *testing.B) {
	for _, sampled := range []bool{false, true} {
		name := "shaper=fixed"
		if sampled {
			name = "shaper=sampled"
		}
		b.Run(name, func(b *testing.B) {
			n := shuffleNetwork(b, sampled)
			n.assignRates()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.flowsChanged = true
				n.assignRates()
			}
		})
	}
}
