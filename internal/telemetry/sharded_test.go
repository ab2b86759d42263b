package telemetry

import (
	"sync"
	"testing"
)

// TestShardedCounterConcurrent hammers one counter from a fleet of
// writers on their own stripes; the summed value must be exact. Run
// with -race this also proves the striping introduces no data race.
func TestShardedCounterConcurrent(t *testing.T) {
	const writers, perWriter = 16, 10000
	c := NewShardedCounter(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := c.Stripe(w)
			for i := 0; i < perWriter; i++ {
				st.Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("Value = %d, want %d", got, writers*perWriter)
	}
}

// TestShardedCounterStripeWrap: more writers than stripes must wrap
// onto shared slots, still counting exactly.
func TestShardedCounterStripeWrap(t *testing.T) {
	c := NewShardedCounter(2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c.Stripe(w).Add(5)
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != 40 {
		t.Fatalf("Value = %d, want 40", got)
	}
}

func TestShardedCounterRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 1}, {1, 1}, {3, 4}, {4, 4}, {9, 16}} {
		c := NewShardedCounter(tc.ask)
		if len(c.stripes) != tc.want {
			t.Errorf("NewShardedCounter(%d): %d stripes, want %d", tc.ask, len(c.stripes), tc.want)
		}
	}
}

func TestShardedCounterNil(t *testing.T) {
	var c *ShardedCounter
	c.Add(3) // must not panic
	if c.Value() != 0 {
		t.Fatal("nil counter Value != 0")
	}
	st := c.Stripe(7)
	if st != nil {
		t.Fatal("nil counter handed out a non-nil stripe")
	}
	st.Inc() // nil stripe is a no-op
	st.Add(2)
}

func TestShardedCounterDirectAdd(t *testing.T) {
	c := NewShardedCounter(4)
	c.Add(3)
	c.Stripe(2).Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("Value = %d, want 7", got)
	}
}

// TestBatchFlush covers the local-accumulation contract: increments
// stay invisible to the counter until Flush, and Flush drains exactly
// the pending delta.
