package main

import (
	"math"
	"testing"
	"time"
)

// evenEvents returns n events completing evenly over [from, to) ns,
// each with latency lat.
func evenEvents(n int, from, to, lat int64) []event {
	ev := make([]event, n)
	for i := range ev {
		ev[i] = event{from + int64(i)*(to-from)/int64(n), lat}
	}
	return ev
}

// TestCutByTimeStall checks that a block with too few samples for a
// p99 runs on to the next boundary instead of failing the run, and that
// its rate covers the whole stretch.
func TestCutByTimeStall(t *testing.T) {
	const ms = int64(time.Millisecond)
	var ev []event
	ev = append(ev, evenEvents(2000, 0, 100*ms, 1)...)      // block 0: 2000 events
	ev = append(ev, evenEvents(500, 100*ms, 200*ms, 2)...)  // block 1: a stall, 500 events ...
	ev = append(ev, evenEvents(1500, 200*ms, 300*ms, 3)...) // ... merged with block 2
	ev = append(ev, evenEvents(2000, 300*ms, 400*ms, 4)...) // block 3
	ev = append(ev, evenEvents(999, 400*ms, 460*ms, 5)...)  // final partial block, too small: dropped
	b, err := cutByTime(ev, 100*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{20000, 10000, 20000}
	if len(b.rate) != len(want) {
		t.Fatalf("rates %v, want %v", b.rate, want)
	}
	for i := range want {
		if math.Abs(b.rate[i]-want[i]) > 1e-6 {
			t.Errorf("block %d: rate %g, want %g", i, b.rate[i], want[i])
		}
	}
	if b.samples != 2000 {
		t.Errorf("smallest block holds %d samples, want 2000", b.samples)
	}
	if b.p50[1] != 3 {
		t.Errorf("merged block p50 %g, want 3", b.p50[1])
	}
	if _, err := cutByTime(evenEvents(999, 0, 300*ms, 1), 100*time.Millisecond, 1); err == nil {
		t.Error("a phase with fewer events than one p99 needs gave blocks")
	}
}
