package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to describe a tail rather than a single slow sample; below
// minTail samples only the median is reported.
const (
	minBeyond = 10
	minTail   = 40
)

// latencies holds request timings in nanoseconds.
type latencies []int64

// percentile returns the nearest-rank p-quantile of the samples, in
// the given unit (nanoseconds per unit), and how many samples back it.
// A quantile above the median is refused unless at least minTail
// samples were taken and at least minBeyond of them lie beyond it.
func (l latencies) percentile(p float64, unitNs float64) (float64, error) {
	n := len(l)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && (n < minTail || n-rank < minBeyond) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, %d samples give %d", p*100, minBeyond, n, n-rank)
	}
	return float64(l[rank-1]) / unitNs, nil
}

// sorted sorts the samples in place and returns them.
func (l latencies) sorted() latencies {
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return l
}

// quartiles returns the first quartile, median and third quartile of
// vals by the method of Python's statistics.quantiles(vals, n=4) (the
// default "exclusive" method), so the spreads this benchmark prints
// match the ones computed from its JSON output.
func quartiles(vals []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // outside 0..4 when clamped: extrapolates, as Python does
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle value of vals (the mean of the middle two for
// an even count).
func median(vals []float64) float64 {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

func sortUint64(k []uint64) { sort.Slice(k, func(i, j int) bool { return k[i] < k[j] }) }
