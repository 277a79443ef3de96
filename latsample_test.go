package deque

import (
	"testing"

	"repro/internal/obs"
)

// TestLatencySampleAlternatingOps: a handle that strictly alternates two
// op kinds — one push, one pop, as every pipelined dequed connection
// does — must sample both kinds. A fixed even sampling interval lands on
// the same kind every time and leaves the other's histogram empty.
func TestLatencySampleAlternatingOps(t *testing.T) {
	if !MetricsEnabled {
		t.Skip("latency histograms compiled out (obsoff)")
	}
	d := New[int]()
	h := d.Register()
	for i := 0; i < 1<<15; i++ {
		if err := h.PushLeft(i); err != nil {
			t.Fatal(err)
		}
		if _, ok := h.PopRight(); !ok {
			t.Fatalf("pop %d found the deque empty", i)
		}
	}
	set := d.LatencySnapshot()
	push, pop := set.Classes[obs.LatPushLeft].Count, set.Classes[obs.LatPopRight].Count
	if push == 0 || pop == 0 {
		t.Fatalf("sampled %d pushes and %d pops over 64k alternating ops; both kinds must be timed", push, pop)
	}
	// The interval is random but keeps its mean: 64k ops at the default
	// 1-in-1024 rate is 64 samples on average.
	if n := push + pop; n < 32 || n > 128 {
		t.Fatalf("%d samples over 64k ops, want about 64", n)
	}
}
