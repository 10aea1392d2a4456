package main

// exactWindow is the benchmark's own exact sliding window over the
// last n keys: a ring of the keys plus a count per distinct key. It
// is the oracle the sketches' answers are checked against, and it
// shares no code with the program under test.
type exactWindow struct {
	ring   []uint64
	head   int // index of the oldest key once the ring is full
	size   int
	counts map[uint64]int
}

func newExactWindow(n int) *exactWindow {
	return &exactWindow{ring: make([]uint64, n), counts: make(map[uint64]int)}
}

// push appends key, evicting the oldest key when the window is full.
func (w *exactWindow) push(key uint64) {
	if w.size == len(w.ring) {
		old := w.ring[w.head]
		if c := w.counts[old]; c <= 1 {
			delete(w.counts, old)
		} else {
			w.counts[old] = c - 1
		}
		w.ring[w.head] = key
		w.head = (w.head + 1) % len(w.ring)
	} else {
		w.ring[(w.head+w.size)%len(w.ring)] = key
		w.size++
	}
	w.counts[key]++
}

// count is key's number of occurrences in the window.
func (w *exactWindow) count(key uint64) int { return w.counts[key] }

// distinct is the number of distinct keys in the window.
func (w *exactWindow) distinct() int { return len(w.counts) }

// each calls fn once per distinct key with its count.
func (w *exactWindow) each(fn func(key uint64, count int)) {
	for k, c := range w.counts {
		fn(k, c)
	}
}

// sortedKeys returns the distinct keys in ascending order, so probes
// built from the window are the same in every run of a seed.
func (w *exactWindow) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(w.counts))
	for k := range w.counts {
		keys = append(keys, k)
	}
	sortUint64(keys)
	return keys
}
