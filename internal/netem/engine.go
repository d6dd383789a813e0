// Package netem is a deterministic discrete-event network emulator.
// It plays the role Linux tc played in the paper (Section 4.2): a
// controllable substrate that reproduces cloud traffic-shaping
// behaviour — token buckets, per-core QoS, stochastic noise — without
// the confounding variability of a real cloud. The paper argues this
// emulation approach is superior both to simulation that ignores
// transport subtleties and to measuring in situ where network effects
// cannot be isolated; netem is the Go equivalent, driving fluid-model
// flows through shaped virtual NICs under a virtual clock.
package netem

import "fmt"

// event is one entry in the scheduler's value-typed heap. Exactly one
// of two dispatch paths is set: fn for one-shot callbacks
// (Schedule/After), or timer for the closure-free Timer path, where
// gen snapshots the timer's generation so a stopped or rescheduled
// timer's stale entries are skipped lazily in O(1).
type event struct {
	at    float64
	seq   uint64 // tie-breaker for deterministic ordering
	fn    func()
	timer *Timer
	gen   uint64
}

// Engine is a virtual-time discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order, making runs
// bit-reproducible. Engine is not safe for concurrent use: the whole
// simulation runs single-threaded by design (determinism beats
// parallelism for an experiment-reproducibility testbed).
//
// The event queue is a value-typed binary heap: scheduling appends
// into a reused backing array instead of heap-allocating a node per
// event, so steady-state scheduling performs no allocation and
// produces no garbage for the collector to chase.
type Engine struct {
	now    float64
	seq    uint64
	events []event
	// stale counts queued entries whose timer generation no longer
	// matches (stopped or rescheduled timers); they are skipped on pop.
	stale int
}

// NewEngine returns an engine at virtual time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// less orders the heap by time, then scheduling order.
func (e *Engine) less(i, j int) bool {
	a, b := &e.events[i], &e.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and restores the heap invariant.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// popMin removes and returns the earliest event. The vacated tail slot
// is zeroed so the backing array does not pin callbacks or timers.
func (e *Engine) popMin() event {
	ev := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events[n] = event{}
	e.events = e.events[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && e.less(l, small) {
			small = l
		}
		if r < n && e.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		e.events[i], e.events[small] = e.events[small], e.events[i]
		i = small
	}
	return ev
}

// compactHead discards stale timer entries from the head of the queue
// so the earliest remaining live event is at index 0.
func (e *Engine) compactHead() {
	for len(e.events) > 0 {
		ev := &e.events[0]
		if ev.timer != nil && ev.gen != ev.timer.gen {
			e.popMin()
			e.stale--
			continue
		}
		return
	}
}

// Schedule registers fn to run at virtual time at. Scheduling in the
// past panics: that is always a simulation bug, never a recoverable
// condition. Hot paths that fire the same callback repeatedly should
// use a Timer, which binds the callback once; Schedule remains the
// compatible one-shot entry point.
func (e *Engine) Schedule(at float64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("netem: scheduling event at %g before now %g", at, e.now))
	}
	e.seq++
	e.push(event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run delay seconds from now.
func (e *Engine) After(delay float64, fn func()) {
	if delay < 0 {
		panic("netem: negative delay")
	}
	e.Schedule(e.now+delay, fn)
}

// Pending returns the number of live queued events (stale timer
// entries awaiting lazy removal are not counted).
func (e *Engine) Pending() int { return len(e.events) - e.stale }

// Step runs the next live event, advancing the clock to it. It
// reports whether an event ran.
func (e *Engine) Step() bool {
	e.compactHead()
	if len(e.events) == 0 {
		return false
	}
	ev := e.popMin()
	e.now = ev.at
	if ev.timer != nil {
		ev.timer.scheduled = false
		ev.timer.fn()
		return true
	}
	ev.fn()
	return true
}

// RunUntil executes events up to and including virtual time t, then
// advances the clock to exactly t.
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("netem: RunUntil(%g) before now %g", t, e.now))
	}
	for {
		e.compactHead()
		if len(e.events) == 0 || e.events[0].at > t {
			break
		}
		e.Step()
	}
	e.now = t
}

// Drain runs all remaining events. It panics if more than limit events
// fire, guarding against accidentally self-perpetuating schedules.
func (e *Engine) Drain(limit int) {
	for i := 0; e.Step(); i++ {
		if i >= limit {
			panic(fmt.Sprintf("netem: Drain exceeded %d events", limit))
		}
	}
}

// Timer is a pre-bound, reusable scheduled callback: the callback is
// bound once at NewTimer, and each (re)scheduling pushes only a value
// event carrying the timer pointer and its current generation — no
// per-event closure, no per-event allocation. Stop and reschedule are
// O(1): they bump the generation, invalidating any outstanding entry,
// which the scheduler discards lazily when it surfaces.
//
// A Timer belongs to the engine that created it and shares its
// single-threaded discipline.
type Timer struct {
	e         *Engine
	fn        func()
	gen       uint64
	scheduled bool
}

// NewTimer binds fn to a reusable timer on this engine.
func (e *Engine) NewTimer(fn func()) *Timer {
	if fn == nil {
		panic("netem: NewTimer requires a callback")
	}
	return &Timer{e: e, fn: fn}
}

// Schedule arms the timer for virtual time at, cancelling any earlier
// pending occurrence (a timer has at most one live entry). Scheduling
// in the past panics, like Engine.Schedule.
func (t *Timer) Schedule(at float64) {
	e := t.e
	if at < e.now {
		panic(fmt.Sprintf("netem: scheduling timer at %g before now %g", at, e.now))
	}
	if t.scheduled {
		t.gen++
		e.stale++
	}
	t.scheduled = true
	e.seq++
	e.push(event{at: at, seq: e.seq, timer: t, gen: t.gen})
}

// After arms the timer delay seconds from now.
func (t *Timer) After(delay float64) {
	if delay < 0 {
		panic("netem: negative delay")
	}
	t.Schedule(t.e.now + delay)
}

// Stop cancels the pending occurrence, if any, in O(1). It reports
// whether the timer was armed.
func (t *Timer) Stop() bool {
	if !t.scheduled {
		return false
	}
	t.gen++
	t.e.stale++
	t.scheduled = false
	return true
}

// Scheduled reports whether the timer has a pending occurrence.
func (t *Timer) Scheduled() bool { return t.scheduled }
