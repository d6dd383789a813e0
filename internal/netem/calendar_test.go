package netem

import "math"

// calendarQueue is the ablation comparator for the binary heap: O(1)
// amortised scheduling via time-bucketed FIFO rings, at the cost of
// tuning sensitivity. It lives in a test file because only the
// ablation tests and benchmark use it; the heap is the production
// structure.
type calendarQueue struct {
	bucketWidth float64
	buckets     [][]event
	now         float64
	size        int
	seq         uint64
}

func newCalendarQueue(bucketWidth float64, nBuckets int) *calendarQueue {
	return &calendarQueue{
		bucketWidth: bucketWidth,
		buckets:     make([][]event, nBuckets),
	}
}

func (c *calendarQueue) schedule(at float64, fn func()) {
	c.seq++
	idx := int(at/c.bucketWidth) % len(c.buckets)
	c.buckets[idx] = append(c.buckets[idx], event{at: at, seq: c.seq, fn: fn})
	c.size++
}

// step fires the earliest event. It scans buckets starting at the
// current epoch's bucket, accepting only events inside the scanned
// bucket's current rotation window — the textbook calendar-queue walk,
// O(events in one bucket) per pop in the common case instead of a full
// scan of every bucket. Events scheduled more than a full rotation
// ahead fall back to a direct search (rare by construction: the
// comparator is tuned so the rotation spans the schedule horizon).
func (c *calendarQueue) step() bool {
	if c.size == 0 {
		return false
	}
	nb := len(c.buckets)
	epoch := int(c.now / c.bucketWidth)
	for i := 0; i < nb; i++ {
		b := (epoch + i) % nb
		bound := float64(epoch+i+1) * c.bucketWidth
		best := -1
		bestAt, bestSeq := math.Inf(1), uint64(math.MaxUint64)
		for j := range c.buckets[b] {
			ev := &c.buckets[b][j]
			if ev.at >= bound {
				continue // a later rotation of this bucket
			}
			if ev.at < bestAt || (ev.at == bestAt && ev.seq < bestSeq) {
				best, bestAt, bestSeq = j, ev.at, ev.seq
			}
		}
		if best >= 0 {
			c.fire(b, best)
			return true
		}
	}
	// Every remaining event lies a full rotation or more ahead: find
	// the global minimum directly.
	bestBucket, bestIdx := -1, -1
	bestAt, bestSeq := math.Inf(1), uint64(math.MaxUint64)
	for b, bucket := range c.buckets {
		for j := range bucket {
			ev := &bucket[j]
			if ev.at < bestAt || (ev.at == bestAt && ev.seq < bestSeq) {
				bestAt, bestSeq = ev.at, ev.seq
				bestBucket, bestIdx = b, j
			}
		}
	}
	c.fire(bestBucket, bestIdx)
	return true
}

// fire removes event idx from bucket b (swap-with-last), advances the
// clock and runs the callback.
func (c *calendarQueue) fire(b, idx int) {
	ev := c.buckets[b][idx]
	last := len(c.buckets[b]) - 1
	c.buckets[b][idx] = c.buckets[b][last]
	c.buckets[b][last] = event{}
	c.buckets[b] = c.buckets[b][:last]
	c.size--
	c.now = ev.at
	ev.fn()
}
