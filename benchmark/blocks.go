package main

import (
	"fmt"
	"sort"
	"time"
)

// A timed phase is cut into blocks, and each timing metric is the
// median over the blocks of the block's value: its operation rate, or
// a latency percentile of its operations. A neighbour's burst on a
// shared machine then spoils the blocks it overlaps, not the metric.

// event is one completed operation: when it completed, relative to the
// start of its phase, and its latency, both in nanoseconds.
type event struct{ at, lat int64 }

// blockStats holds one value per block.
type blockStats struct {
	rate     []float64 // operations per second
	p50, p99 []float64 // nanoseconds
	samples  int       // latencies per block, at the smallest block
}

// add closes one block of ops operations over dur with the given
// latencies (sorted in place). A block too small for a p99 under the
// sample-count rule is an error: the caller sized its blocks.
func (b *blockStats) add(ops int64, dur time.Duration, lat latencies) error {
	if dur <= 0 {
		return fmt.Errorf("empty block")
	}
	b.rate = append(b.rate, float64(ops)/dur.Seconds())
	if len(lat) == 0 {
		return nil
	}
	lat.sorted()
	p50, err := lat.percentile(0.5, 1)
	if err != nil {
		return err
	}
	p99, err := lat.percentile(0.99, 1)
	if err != nil {
		return err
	}
	b.p50 = append(b.p50, p50)
	b.p99 = append(b.p99, p99)
	if b.samples == 0 || len(lat) < b.samples {
		b.samples = len(lat)
	}
	return nil
}

// merge appends o's blocks.
func (b *blockStats) merge(o *blockStats) {
	b.rate = append(b.rate, o.rate...)
	b.p50 = append(b.p50, o.p50...)
	b.p99 = append(b.p99, o.p99...)
	if b.samples == 0 || (o.samples > 0 && o.samples < b.samples) {
		b.samples = o.samples
	}
}

// minBlockSamples is the fewest latencies a time block closes with:
// enough for its p99 under the sample-count rule.
const minBlockSamples = minBeyond * 100

// cutByTime splits events (from any number of connections) into
// blocks of blockDur by completion time. A block that holds fewer than
// minBlockSamples events when its time is up (a stall on the server)
// runs on to the next boundary, so its rate covers the whole stretch.
// A final partial block shorter than half a block, or too small for a
// p99, is dropped. Each event stands for opsPer operations in the
// rate.
func cutByTime(events []event, blockDur time.Duration, opsPer int64) (*blockStats, error) {
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	b := &blockStats{}
	bn := blockDur.Nanoseconds()
	var lat latencies
	var ops int64
	start, cur := int64(0), int64(0)
	for _, e := range events {
		for e.at >= (cur+1)*bn {
			cur++
			if len(lat) < minBlockSamples {
				continue
			}
			if err := b.add(ops, time.Duration(cur*bn-start), lat); err != nil {
				return nil, err
			}
			lat, ops = lat[:0], 0
			start = cur * bn
		}
		lat = append(lat, e.lat)
		ops += opsPer
	}
	if len(events) > 0 {
		if rest := events[len(events)-1].at - start; rest >= bn/2 && len(lat) >= minBlockSamples {
			if err := b.add(ops, time.Duration(rest), lat); err != nil {
				return nil, err
			}
		}
	}
	if len(b.rate) == 0 {
		return nil, fmt.Errorf("phase shorter than half a block, or fewer than %d events", minBlockSamples)
	}
	return b, nil
}

// cutByCount splits events from one connection into blocks of n
// operations; a final block of fewer than n/2, or too few for a p99,
// is dropped. The rate of a block runs from the previous block's last
// completion to its own.
func cutByCount(events []event, n int, opsPer int64) (*blockStats, error) {
	b := &blockStats{}
	prev := int64(0)
	least := max(n/2, min(n, minBlockSamples))
	for i := 0; i+least <= len(events); i += n {
		end := min(i+n, len(events))
		lat := make(latencies, 0, end-i)
		for _, e := range events[i:end] {
			lat = append(lat, e.lat)
		}
		last := events[end-1].at
		if err := b.add(int64(end-i)*opsPer, time.Duration(last-prev), lat); err != nil {
			return nil, err
		}
		prev = last
	}
	if len(b.rate) == 0 {
		return nil, fmt.Errorf("fewer than %d events", least)
	}
	return b, nil
}

// setBlocks sets the rate metric (in thousands per second) and the
// latency metric <prefix>_p50_<unit> from block medians, and prints
// the block and sample counts.
func (r *run) setBlocks(rateName, prefix, unit string, unitNs float64, b *blockStats) {
	r.set(rateName, median(b.rate)/1e3)
	r.set(prefix+"_p50_"+unit, median(b.p50)/unitNs)
	// The p99 is printed, not reported: between runs it moved by more
	// than any bound a regression gate could use (README.md).
	r.note("%s/%s: median of %d blocks, at least %d latencies per block; %s_p99_%s %.4f",
		rateName, prefix, len(b.rate), b.samples, prefix, unit, median(b.p99)/unitNs)
}
