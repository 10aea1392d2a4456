package main

import (
	"math/rand"
	"testing"
)

// TestExactWindowMatchesBruteForce compares the ring-and-map window
// against recounting the last n keys of the stream after every push.
func TestExactWindowMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		r := rand.New(rand.NewSource(int64(n)))
		w := newExactWindow(n)
		var all []uint64
		for i := 0; i < 500; i++ {
			k := uint64(r.Intn(20))
			w.push(k)
			all = append(all, k)
			lo := len(all) - n
			if lo < 0 {
				lo = 0
			}
			want := map[uint64]int{}
			for _, x := range all[lo:] {
				want[x]++
			}
			if w.distinct() != len(want) {
				t.Fatalf("n=%d step %d: distinct %d, want %d", n, i, w.distinct(), len(want))
			}
			for k := uint64(0); k < 20; k++ {
				if w.count(k) != want[k] {
					t.Fatalf("n=%d step %d key %d: count %d, want %d", n, i, k, w.count(k), want[k])
				}
			}
			sum := 0
			w.each(func(_ uint64, c int) { sum += c })
			if sum != len(all[lo:]) {
				t.Fatalf("n=%d step %d: counts sum to %d, want %d", n, i, sum, len(all[lo:]))
			}
		}
		keys := w.sortedKeys()
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("sortedKeys not ascending: %v", keys)
			}
		}
	}
}
