package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"she"
	"she/internal/analysis"
)

// Sizes shared by the library and ingest workloads: shed's defaults.
const (
	libWindow    = 1 << 16
	libBits      = 1 << 20
	libCounters  = 1 << 16
	libRegisters = 4096
	groupSize    = 64 // she's default cells per cleaning group
	hashes       = 8  // she's default hash functions
	alphaBF      = 3.0
	alphaCM      = 1.0
	alphaHLL     = 0.2
)

// Library round: 256 batches of 64 keys into all three sketches, then
// one BloomFilter.Query and one CountMin.Frequency for every 4th key
// of the round.
const (
	libBatch       = 64
	libBatches     = 256
	libQueryStride = 4
	libSetupReps   = 5
	libRecoverReps = 31
	libBlockRounds = 20
)

type libSketches struct {
	bf  *she.BloomFilter
	cm  *she.CountMin
	hll *she.HyperLogLog
}

func newLibSketches() (libSketches, error) {
	var s libSketches
	var err error
	if s.bf, err = she.NewBloomFilter(libBits, she.Options{Window: libWindow, Alpha: alphaBF, Seed: 1}); err != nil {
		return s, err
	}
	if s.cm, err = she.NewCountMin(libCounters, she.Options{Window: libWindow, Alpha: alphaCM, Seed: 1}); err != nil {
		return s, err
	}
	s.hll, err = she.NewHyperLogLog(libRegisters, she.Options{Window: libWindow, Alpha: alphaHLL, Seed: 1})
	return s, err
}

func (s libSketches) insert(keys []uint64) {
	for _, k := range keys {
		s.bf.Insert(k)
		s.cm.Insert(k)
		s.hll.Insert(k)
	}
}

// runLibrary is a closed loop in one goroutine over package she,
// unsharded: the paper's Fig 10/11 measurement.
func runLibrary(r *run) error {
	const ringLen = 1 << 21
	ring := zipfKeys(r.seed, ringLen)
	// Set-up absorbs the longest cleaning cycle, SHE-BF's (1+α)·N.
	setupKeys := int((1 + alphaBF) * libWindow)

	var sk libSketches
	var setups []float64
	for i := 0; i < libSetupReps; i++ {
		t0 := time.Now()
		s, err := newLibSketches()
		if err != nil {
			return err
		}
		s.insert(ring[:setupKeys])
		setups = append(setups, time.Since(t0).Seconds())
		sk = s
	}
	r.set("setup_s", median(setups))

	pos := setupKeys
	ins, qs := &blockStats{}, &blockStats{}
	var insLat, qLat latencies
	var blkInsert, blkQuery time.Duration
	var inserted, queried, blkKeys, blkQueries int64
	var sink uint64
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for round := uint64(1); time.Now().Before(deadline); round++ {
		if pos+libBatch*libBatches > ringLen {
			pos = 0
		}
		keys := ring[pos : pos+libBatch*libBatches]
		pos += len(keys)
		sp := r.tr.begin("library.insert_round", 0, round)
		t0 := time.Now()
		last := t0
		for b := 0; b < libBatches; b++ {
			sk.insert(keys[b*libBatch : (b+1)*libBatch])
			now := time.Now()
			insLat = append(insLat, int64(now.Sub(last)))
			last = now
		}
		blkInsert += last.Sub(t0)
		blkKeys += int64(len(keys))
		r.tr.finish(sp, len(keys))

		sp = r.tr.begin("library.query_round", 0, round)
		t0 = time.Now()
		last = t0
		for j := 0; j < len(keys); j += libQueryStride {
			if sk.bf.Query(keys[j]) {
				sink++
			}
			now := time.Now()
			qLat = append(qLat, int64(now.Sub(last)))
			sink += sk.cm.Frequency(keys[j])
			last, now = now, time.Now()
			qLat = append(qLat, int64(now.Sub(last)))
			last = now
		}
		blkQuery += last.Sub(t0)
		blkQueries += int64(len(keys) / libQueryStride * 2)
		r.tr.finish(sp, len(keys)/libQueryStride*2)

		if round%libBlockRounds == 0 {
			if err := ins.add(blkKeys, blkInsert, insLat); err != nil {
				return err
			}
			if err := qs.add(blkQueries, blkQuery, qLat); err != nil {
				return err
			}
			inserted += blkKeys
			queried += blkQueries
			insLat, qLat = insLat[:0], qLat[:0]
			blkInsert, blkQuery, blkKeys, blkQueries = 0, 0, 0, 0
		}
	}
	if len(ins.rate) == 0 {
		return fmt.Errorf("run shorter than one block of %d rounds", libBlockRounds)
	}
	r.attempted = inserted + queried
	r.ackedKeys = inserted
	r.setBlocks("insert_kps", "ack", "ms", 1e6, ins)
	r.setBlocks("query_kps", "query", "us", 1e3, qs)
	r.note("library: %d keys inserted, %d queries, sink %d", inserted, queried, sink%2)

	// The oracle: the last N keys inserted, rebuilt from the ring.
	w := newExactWindow(libWindow)
	for i := pos - libWindow; i < pos; i++ {
		w.push(ring[(i+ringLen)%ringLen])
	}
	checkLibrary(r, sk, w)

	// Restore: the three sketches from their snapshots.
	blobs := make([][]byte, 3)
	var err error
	if blobs[0], err = sk.bf.MarshalBinary(); err != nil {
		return err
	}
	if blobs[1], err = sk.cm.MarshalBinary(); err != nil {
		return err
	}
	if blobs[2], err = sk.hll.MarshalBinary(); err != nil {
		return err
	}
	var recovers []float64
	var restored libSketches
	for i := 0; i < libRecoverReps; i++ {
		runtime.GC() // each restore starts from the same heap
		t0 := time.Now()
		if restored.bf, err = she.UnmarshalBloomFilter(blobs[0]); err != nil {
			return err
		}
		if restored.cm, err = she.UnmarshalCountMin(blobs[1]); err != nil {
			return err
		}
		if restored.hll, err = she.UnmarshalHyperLogLog(blobs[2]); err != nil {
			return err
		}
		recovers = append(recovers, time.Since(t0).Seconds())
	}
	r.set("recover_s", median(recovers))
	diff := 0
	w.each(func(k uint64, _ int) {
		if restored.bf.Query(k) != sk.bf.Query(k) || restored.cm.Frequency(k) != sk.cm.Frequency(k) {
			diff++
		}
	})
	r.check(diff == 0 && restored.hll.Cardinality() == sk.hll.Cardinality(),
		"library: restored sketches answer %d window keys differently", diff)
	r.set("rss_mb", peakRSSMB())

	r.layerIn = &layerInput{keys: ring[:1<<18], width: libBatch, linesPerBatch: 32,
		window: libWindow, shards: 1, bits: libBits, counters: libCounters, registers: libRegisters}
	return nil
}

// checkLibrary checks the sketches against the exact window: no false
// negatives and no undercounts beyond the §5.1 aliasing budget, the
// false-positive rate within §5.2's model, and the HLL error within
// §5.3's bound. Measured accuracy is printed as reference figures.
func checkLibrary(r *run, sk libSketches, w *exactWindow) {
	c := float64(w.distinct())
	fn, under := 0, 0
	are := 0.0
	w.each(func(k uint64, n int) {
		if !sk.bf.Query(k) {
			fn++
		}
		est := sk.cm.Frequency(k)
		if est < uint64(n) {
			under++
		}
		are += math.Abs(float64(est)-float64(n)) / float64(n)
	})
	are /= c
	bfBudget := aliasBudget(libBits/groupSize, alphaBF, c)
	cmBudget := aliasBudget(libCounters/groupSize, alphaCM, c) + youngBudget(alphaCM, c)
	r.check(float64(fn) <= bfBudget, "library: SHE-BF %d false negatives, aliasing budget %.2f", fn, bfBudget)
	r.check(float64(under) <= cmBudget, "library: SHE-CM undercounts %d keys, aliasing budget %.2f", under, cmBudget)

	absent := absentKeys(r.seed, 20000, func(k uint64) bool { return w.count(k) > 0 })
	fp := 0
	for _, k := range absent {
		if sk.bf.Query(k) {
			fp++
		}
	}
	fpr := float64(fp) / float64(len(absent))
	pred, limit := fprLimit(libBits, c, len(absent))
	r.check(fpr <= limit, "library: SHE-BF FPR %.5f above model %.5f (limit %.5f)", fpr, pred, limit)

	est := sk.hll.Cardinality()
	hllErr := math.Abs(est-c) / c
	hllBound := analysis.HLLErrorBound(alphaHLL, libWindow, c) + 3*1.04/math.Sqrt(libRegisters)
	r.check(hllErr <= hllBound, "library: SHE-HLL relative error %.4f above bound %.4f", hllErr, hllBound)
	r.note("accuracy: window distinct %d; BF FN %d (budget %.2f), FPR %.5f (model %.5f); CM ARE %.4f, undercounts %d (budget %.2f); HLL rel err %.4f (bound %.4f)",
		w.distinct(), fn, bfBudget, fpr, pred, are, under, cmBudget, hllErr, hllBound)
}

// youngBudget is how many of distinct in-window keys SHE-CM may
// undercount because every one of the key's hashes lands in a group
// younger than N, which holds only part of the window: a fraction
// (N/Tcycle)^H = (1+α)^-H of the keys, plus four standard deviations.
func youngBudget(alpha, distinct float64) float64 {
	p := math.Pow(1/(1+alpha), hashes)
	return distinct*p + 4*math.Sqrt(distinct*p) + 1
}

// aliasBudget is the number of in-window keys that §5.1 (Eq. 1) allows
// to be misreported: the expected groups that go uncleaned for a whole
// cycle, times the in-window keys that hash into one group.
func aliasBudget(groups int, alpha, distinct float64) float64 {
	failures := analysis.OnDemandFailures(groups, alpha, distinct, hashes)
	return failures * distinct * hashes / float64(groups)
}

// fprLimit is §5.2's predicted SHE-BF false-positive rate for a window
// of the given distinct count, and the highest measured rate over n
// probes the check accepts: the prediction plus four binomial
// standard deviations.
func fprLimit(bits int, distinct float64, n int) (pred, limit float64) {
	q := analysis.QBF(groupSize, bits/groupSize, distinct, hashes)
	pred = analysis.FPR(1+alphaBF, q, hashes)
	return pred, pred + 4*math.Sqrt(pred*(1-pred)/float64(n)) + 1/float64(n)
}
