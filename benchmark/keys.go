package main

import (
	"strconv"

	"she/internal/stream"
)

// The key stream every workload draws from: a seeded Zipf stream from
// internal/stream, mapped onto 19-digit decimals so every key has the
// same width on the wire and in the WAL. With a fixed width the WAL
// bytes of a fixed-count run do not depend on the seed, so durable's
// checkpoints fall after the same insert in every run.
const (
	zipfSkew     = 1.2
	zipfDistinct = 600_000
	keyBase      = 1_000_000_000_000_000_000 // 10^18: the smallest 19-digit key
)

// wireKey maps a generated 64-bit key onto [10^18, 10^19).
func wireKey(k uint64) uint64 { return keyBase + k%(9*keyBase) }

// zipfKeys returns n keys of the workload stream for seed.
func zipfKeys(seed uint64, n int) []uint64 {
	g := stream.NewZipf(zipfSkew, zipfDistinct, seed)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = wireKey(g.Next())
	}
	return keys
}

// absentKeys returns n keys drawn from a stream disjoint from the
// Zipf alphabet (fresh keys, never repeated), skipping any that skip
// reports as present. They probe false positives.
func absentKeys(seed uint64, n int, skip func(uint64) bool) []uint64 {
	g := stream.NewDistinct(seed ^ 0xab5e7)
	keys := make([]uint64, 0, n)
	for len(keys) < n {
		k := wireKey(g.Next())
		if skip == nil || !skip(k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// appendMinsert appends "MINSERT <name> <key>...\n".
func appendMinsert(b []byte, name string, keys []uint64) []byte {
	b = append(b, "MINSERT "...)
	b = append(b, name...)
	for _, k := range keys {
		b = append(b, ' ')
		b = strconv.AppendUint(b, k, 10)
	}
	return append(b, '\n')
}

// appendQuery appends "SKETCH.QUERY <name> <key>\n".
func appendQuery(b []byte, name string, key uint64) []byte {
	b = append(b, "SKETCH.QUERY "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, key, 10)
	return append(b, '\n')
}

// lineSet is a ring of pre-encoded request lines together with the
// keys each line carries, so acked keys can be replayed into the
// exact window after the fact.
type lineSet struct {
	lines [][]byte
	keys  [][]uint64
	names []string
}

// minsertLines cuts keys into MINSERT lines of width keys each, the
// i-th line addressed to names[i%len(names)].
func minsertLines(keys []uint64, width int, names []string) *lineSet {
	ls := &lineSet{}
	for i := 0; i+width <= len(keys); i += width {
		name := names[len(ls.lines)%len(names)]
		k := keys[i : i+width]
		ls.lines = append(ls.lines, appendMinsert(nil, name, k))
		ls.keys = append(ls.keys, k)
		ls.names = append(ls.names, name)
	}
	return ls
}

// keysFlat returns the first n keys of the line set, in line order.
func (ls *lineSet) keysFlat(n int) []uint64 {
	out := make([]uint64, 0, n)
	for _, k := range ls.keys {
		if len(out)+len(k) > n {
			break
		}
		out = append(out, k...)
	}
	return out
}
