package telemetry

// Batch is single-owner local accumulation for a Counter: the hot loop
// calls Inc (one integer add, no atomics, no contention), and the loop
// exits call Flush to publish the pending delta in one atomic Add.
// The simulator's kernel batches its per-event counter this way, so
// instrumentation costs the dispatch loop nothing measurable.
//
// A Batch is owned by exactly one goroutine; the zero value with a nil
// target is a valid no-op accumulator (pending still counts, Flush
// discards). Readers of the underlying counter see batched increments
// only after Flush.
type Batch struct {
	c       *Counter
	pending int64
}

// NewBatch returns a batch accumulating into c (which may be nil).
func NewBatch(c *Counter) Batch { return Batch{c: c} }

// Inc adds one locally.
func (b *Batch) Inc() { b.pending++ }

// Add adds n locally.
func (b *Batch) Add(n int64) { b.pending += n }

// Pending returns the locally accumulated, unflushed delta.
func (b *Batch) Pending() int64 { return b.pending }

// Flush publishes the pending delta to the counter and resets it.
func (b *Batch) Flush() {
	if b.pending != 0 {
		b.c.Add(b.pending)
		b.pending = 0
	}
}
