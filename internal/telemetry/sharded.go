package telemetry

import "sync/atomic"

// stripeWidth pads each stripe to its own cache line so concurrent
// writers on different stripes never false-share. 64 bytes covers
// every platform the simulator targets; the waste is 56 bytes per
// stripe, paid once at construction.
type counterStripe struct {
	v atomic.Int64
	_ [56]byte
}

// ShardedCounter is a Counter for hot concurrent increment paths: the
// count is striped across padded slots, so writers that would contend
// on one atomic (a parallel worker pool) each hit
// their own cache line. Reads sum the stripes — slightly more work, on
// the assumption that increments vastly outnumber reads.
//
// Writers should resolve a *Stripe handle once (keyed by worker index)
// and increment through it; Add on the counter itself is valid but
// always lands on stripe 0. A nil *ShardedCounter is a no-op
// everywhere, matching the package's nil-safety convention.
type ShardedCounter struct {
	stripes []counterStripe
	mask    uint32
}

// NewShardedCounter returns a counter striped over at least n slots
// (rounded up to a power of two, minimum 1).
func NewShardedCounter(n int) *ShardedCounter {
	w := 1
	for w < n {
		w <<= 1
	}
	return &ShardedCounter{stripes: make([]counterStripe, w), mask: uint32(w - 1)}
}

// Stripe returns the increment handle for worker i (wrapped onto the
// stripe count). Returns nil on a nil counter; a nil *Stripe is a
// no-op.
func (c *ShardedCounter) Stripe(i int) *Stripe {
	if c == nil {
		return nil
	}
	return (*Stripe)(&c.stripes[uint32(i)&c.mask])
}

// Add adds n on stripe 0. No-op on a nil counter.
func (c *ShardedCounter) Add(n int64) {
	if c == nil {
		return
	}
	c.stripes[0].v.Add(n)
}

// Value returns the summed count across stripes; 0 on a nil counter.
// The sum is not an atomic snapshot of all stripes at one instant —
// like any multi-writer counter read, it is exact once writers have
// quiesced and monotonically fresh while they run.
func (c *ShardedCounter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}

// Stripe is one writer's handle onto a ShardedCounter slot.
type Stripe counterStripe

// Inc adds one. No-op on a nil stripe.
func (s *Stripe) Inc() { s.Add(1) }

// Add adds n. No-op on a nil stripe.
func (s *Stripe) Add(n int64) {
	if s == nil {
		return
	}
	s.v.Add(n)
}
