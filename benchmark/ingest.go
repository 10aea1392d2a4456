package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The ingest workload: shed's default geometry (the library sizes,
// split over 8 shards), MINSERT lines of 64 keys alternating between a
// bloom and a cm sketch, 32 lines outstanding per connection.
const (
	ingestWidth     = 64
	ingestDepth     = 32
	ingestShards    = 8
	ingestSetupReps = 3
	ingestRestarts  = 9
	ingestBlock     = 250 * time.Millisecond
	absentProbes    = 4096
	prefillMargin   = 1.5
)

var ingestSketches = []struct{ name, kind, params string }{
	{"bf", "bloom", fmt.Sprintf("bits=%d window=%d shards=%d seed=1", libBits, libWindow, ingestShards)},
	{"cm", "cm", fmt.Sprintf("counters=%d window=%d shards=%d seed=1", libCounters, libWindow, ingestShards)},
}

// prefillLines cuts keys into MINSERT lines of width keys, addressed
// round-robin to the sketches that still need keys, until every sketch
// in need has received its count.
func prefillLines(keys []uint64, width int, need map[string]int) *lineSet {
	names := make([]string, 0, len(need))
	for n := range need {
		names = append(names, n)
	}
	sort.Strings(names)
	got := map[string]int{}
	ls := &lineSet{}
	for i := 0; ; i++ {
		var open []string
		for _, n := range names {
			if got[n] < need[n] {
				open = append(open, n)
			}
		}
		if len(open) == 0 {
			return ls
		}
		name := open[i%len(open)]
		off := (len(ls.lines) * width) % (len(keys) - width)
		k := keys[off : off+width]
		ls.lines = append(ls.lines, appendMinsert(nil, name, k))
		ls.keys = append(ls.keys, k)
		ls.names = append(ls.names, name)
		got[name] += width
	}
}

// setupSketches creates the sketches on c and prefills each with
// margin times its shards' summed cleaning cycles (a margin above 1
// covers shards that receive less than their share), pipelined in
// lines of width keys. It returns the keys acked per sketch.
func setupSketches(c *client, sketches []struct{ name, kind, params string }, keys []uint64, width, depth int, margin float64) (map[string]int64, error) {
	need := map[string]int{}
	for _, s := range sketches {
		tc, err := createSketch(c, s.name, s.kind, s.params)
		if err != nil {
			return nil, err
		}
		need[s.name] = int(math.Ceil(margin * float64(tc)))
	}
	ls := prefillLines(keys, width, need)
	got := map[string]int64{}
	_, err := c.pipeline(depth, len(ls.lines), func(i int) []byte { return ls.lines[i] },
		func() bool { return false },
		func(i int, rep []byte, _ time.Time) error {
			if k, ok := parseCount(rep); !ok || k != int64(width) {
				return fmt.Errorf("prefill line %d: %q", i, rep)
			}
			got[ls.names[i]] += int64(width)
			return nil
		})
	return got, err
}

func runIngest(r *run) error {
	conns := min(2, runtime.NumCPU())
	names := []string{"bf", "cm"}
	ring := minsertLines(zipfKeys(r.seed, 1<<20), ingestWidth, names)
	pre := zipfKeys(r.seed^0x5eed, 1<<20)
	snapDir := filepath.Join(r.dir, "snapshots")
	args := []string{"-snapshots", snapDir}

	var p *shedProc
	var acked map[string]int64
	var setups []float64
	for i := 0; i < ingestSetupReps; i++ {
		if p != nil {
			p.kill()
		}
		r.clientFrom = selfCPU() // client CPU is counted over the last shed's life
		t0 := time.Now()
		var err error
		if p, err = startShed(r.shedBin, args...); err != nil {
			return err
		}
		c, err := dial(p.addr)
		if err != nil {
			p.kill()
			return err
		}
		acked, err = setupSketches(c, ingestSketches, pre, ingestWidth, ingestDepth, prefillMargin)
		c.close()
		if err != nil {
			p.kill()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.kill()
	r.set("setup_s", median(setups))

	cs := make([]*client, conns)
	for i := range cs {
		c, err := dial(p.addr)
		if err != nil {
			return err
		}
		defer c.close()
		cs[i] = c
	}

	// Insert phase: each connection sends its own stretch of the ring
	// in a closed loop until the deadline.
	var mu sync.Mutex
	var acks []event
	var ackedLines int64
	next := make([]int, conns)
	phase := r.tr.begin("ingest.insert", 0, 0)
	t0 := time.Now()
	deadline := t0.Add(time.Duration(0.6 * r.seconds * float64(time.Second)))
	err := parallel(conns, func(ci int) error {
		c := cs[ci]
		var mine int64
		mineKeys := map[string]int64{}
		var evs []event
		line := func(j int) int { return (ci*len(ring.lines)/conns + j) % len(ring.lines) }
		sent, err := c.pipeline(ingestDepth, -1, func(j int) []byte { return ring.lines[line(j)] },
			func() bool { return time.Now().After(deadline) },
			func(j int, rep []byte, sent time.Time) error {
				now := time.Now()
				if k, ok := parseCount(rep); !ok || k != ingestWidth {
					return fmt.Errorf("MINSERT reply %q", rep)
				}
				evs = append(evs, event{now.Sub(t0).Nanoseconds(), now.Sub(sent).Nanoseconds()})
				r.tr.record("wire.MINSERT", phase.id, uint64(ci)<<40|uint64(j), sent, now, ingestWidth)
				mine++
				mineKeys[ring.names[line(j)]] += ingestWidth
				return nil
			})
		mu.Lock()
		defer mu.Unlock()
		ackedLines += mine
		for n, k := range mineKeys {
			acked[n] += k
		}
		next[ci] = line(sent)
		acks = append(acks, evs...)
		return err
	})
	r.tr.finish(phase, int(ackedLines))
	if err != nil {
		return err
	}
	blocks, err := cutByTime(acks, ingestBlock, ingestWidth)
	if err != nil {
		return err
	}
	r.setBlocks("insert_kps", "ack", "ms", 1e6, blocks)

	// Tail: Window/shards keys per sketch on one connection, so the
	// oracle knows their order; every shard window holds them all.
	tailLines := 2 * (libWindow / ingestShards) / ingestWidth
	start := next[0] &^ 1 // an even line: the tail alternates bf, cm
	windows := map[string]*exactWindow{"bf": newExactWindow(libWindow / ingestShards), "cm": newExactWindow(libWindow / ingestShards)}
	_, err = cs[0].pipeline(ingestDepth, tailLines, func(j int) []byte { return ring.lines[(start+j)%len(ring.lines)] },
		func() bool { return false },
		func(j int, rep []byte, _ time.Time) error {
			l := (start + j) % len(ring.lines)
			if k, ok := parseCount(rep); !ok || k != ingestWidth {
				return fmt.Errorf("tail MINSERT reply %q", rep)
			}
			for _, k := range ring.keys[l] {
				windows[ring.names[l]].push(k)
			}
			acked[ring.names[l]] += ingestWidth
			return nil
		})
	if err != nil {
		return err
	}
	ps := newProbeSet(r.seed, windows)
	ps.distinct = recentDistinct(ring, start+tailLines, libWindow)

	// Query phase: the probe set, round after round, pipelined on every
	// connection, each reply checked.
	var queries []event
	var queried int64
	res := &probeResult{}
	phase = r.tr.begin("ingest.query", 0, 0)
	t0 = time.Now()
	deadline = t0.Add(time.Duration(0.3 * r.seconds * float64(time.Second)))
	err = parallel(conns, func(ci int) error {
		var n int64
		var evs []event
		mine := &probeResult{}
		idx := func(j int) int { return (ci + j*conns) % len(ps.lines) }
		_, err := cs[ci].pipeline(ingestDepth, -1, func(j int) []byte { return ps.lines[idx(j)] },
			func() bool { return time.Now().After(deadline) },
			func(j int, rep []byte, sent time.Time) error {
				now := time.Now()
				evs = append(evs, event{now.Sub(t0).Nanoseconds(), now.Sub(sent).Nanoseconds()})
				r.tr.record("wire.QUERY", phase.id, uint64(ci)<<40|uint64(j), sent, now, 1)
				n++
				return ps.judge(idx(j), rep, mine)
			})
		mu.Lock()
		defer mu.Unlock()
		queried += n
		queries = append(queries, evs...)
		res.add(mine)
		return err
	})
	r.tr.finish(phase, int(queried))
	if err != nil {
		return err
	}
	if blocks, err = cutByTime(queries, ingestBlock, 1); err != nil {
		return err
	}
	r.setBlocks("query_kps", "query", "us", 1e3, blocks)
	ps.check(r, "ingest primary", res, ingestShards)

	c := cs[0]
	for _, s := range ingestSketches {
		st, err := c.kv("SKETCH.STATS " + s.name)
		if err != nil {
			return err
		}
		r.check(st["inserts"] == strconv.FormatInt(acked[s.name], 10),
			"ingest: SKETCH.STATS %s inserts=%s, acked %d", s.name, st["inserts"], acked[s.name])
	}

	// Recovery without a WAL: save both sketches, then restart shed on
	// the saved files (-autosave loads them before it listens).
	for _, s := range ingestSketches {
		if err := c.mustOK("SKETCH.SAVE " + s.name); err != nil {
			return err
		}
	}
	before, err := ps.answers(c)
	if err != nil {
		return err
	}
	if r.info, err = c.kv("INFO"); err != nil {
		return err
	}
	for _, c := range cs {
		c.close()
	}
	cpu, rss := usage(p.stop(syscall.SIGTERM))
	r.set("rss_mb", rss)
	r.shedCPU = cpu
	var restarts []float64
	var restarted *shedProc
	for i := 0; i < ingestRestarts; i++ {
		if restarted != nil {
			restarted.kill()
		}
		if restarted, err = startShed(r.shedBin, "-autosave", snapDir); err != nil {
			return err
		}
		restarts = append(restarts, restarted.ready.Seconds())
	}
	defer restarted.kill()
	r.set("recover_s", median(restarts))
	rc, err := dial(restarted.addr)
	if err != nil {
		return err
	}
	after, err := ps.answers(rc)
	rc.close()
	if err != nil {
		return err
	}
	r.check(equalStrings(before, after), "ingest: shed restarted on the saved sketches answers the probe set differently")
	for _, v := range acked {
		r.ackedKeys += v
	}
	r.attempted = ackedLines + int64(tailLines) + queried
	r.note("ingest: %d connections, %d lines acked, %d queries; server keys/apply %.1f",
		conns, ackedLines, queried, ratio(infoFloat(r.info, "batch_keys_total"), infoFloat(r.info, "batch_applies_total")))
	r.layerIn = &layerInput{keys: ring.keysFlat(1 << 18), width: ingestWidth, linesPerBatch: ingestDepth,
		window: libWindow, shards: ingestShards, bits: libBits, counters: libCounters, registers: libRegisters}
	return nil
}

// parallel runs fn(0..n-1) on n goroutines and returns the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// probeSet is the queries the oracle can judge: every distinct key of
// the checked windows (membership for bloom, frequency for cm) plus
// keys never inserted (false positives for bloom), in a fixed order.
type probeSet struct {
	lines    [][]byte
	name     []string
	key      []uint64
	want     []int // exact count in the window; 0 for an absent key
	windows  map[string]*exactWindow
	distinct map[string]float64 // estimated window cardinality per sketch
}

type probeResult struct {
	fn, under, fp, absent, present int64
}

func (a *probeResult) add(b *probeResult) {
	a.fn += b.fn
	a.under += b.under
	a.fp += b.fp
	a.absent += b.absent
	a.present += b.present
}

func newProbeSet(seed uint64, windows map[string]*exactWindow) *probeSet {
	ps := &probeSet{windows: windows}
	names := make([]string, 0, len(windows))
	for n := range windows {
		names = append(names, n)
	}
	sort.Strings(names)
	add := func(name string, k uint64, want int) {
		ps.lines = append(ps.lines, appendQuery(nil, name, k))
		ps.name = append(ps.name, name)
		ps.key = append(ps.key, k)
		ps.want = append(ps.want, want)
	}
	for _, n := range names {
		w := windows[n]
		for _, k := range w.sortedKeys() {
			add(n, k, w.count(k))
		}
		if n == "bf" {
			for _, k := range absentKeys(seed, absentProbes, func(k uint64) bool { return w.count(k) > 0 }) {
				add(n, k, 0)
			}
		}
	}
	return ps
}

// judge checks one reply to probe i.
func (ps *probeSet) judge(i int, rep []byte, res *probeResult) error {
	v, ok := parseCount(rep)
	if !ok {
		return fmt.Errorf("%s: reply %q", strings.TrimSpace(string(ps.lines[i])), rep)
	}
	switch want := ps.want[i]; {
	case ps.name[i] == "cm":
		if v < int64(want) {
			res.under++
		}
		res.present++
	case want == 0:
		res.absent++
		if v == 1 {
			res.fp++
		}
	default:
		if v != 1 {
			res.fn++
		}
	}
	return nil
}

// check applies the per-key guarantees to a whole probe pass: no false
// negatives and no undercounts beyond their budgets, computed per
// shard (each shard holds 1/shards of the cells and of the window's
// distinct keys).
func (ps *probeSet) check(r *run, who string, res *probeResult, shards int) {
	rounds := float64(res.present) / float64(ps.windows["cm"].distinct())
	cb := ps.distinct["bf"] / float64(shards)
	cc := ps.distinct["cm"] / float64(shards)
	bfBudget := float64(shards) * aliasBudget(libBits/groupSize/shards, alphaBF, cb)
	cmBudget := float64(shards) * (aliasBudget(libCounters/groupSize/shards, alphaCM, cc) + youngBudget(alphaCM, cc))
	fn, under := float64(res.fn)/rounds, float64(res.under)/rounds
	r.check(fn <= bfBudget, "%s: SHE-BF %.1f false negatives per pass, budget %.2f", who, fn, bfBudget)
	r.check(under <= cmBudget, "%s: SHE-CM %.1f undercounts per pass, budget %.2f", who, under, cmBudget)
	r.note("accuracy (%s, last %d keys per sketch): BF FN %.1f (budget %.2f), FPR %.5f; CM undercounts %.1f (budget %.2f)",
		who, ps.windows["bf"].size, fn, bfBudget, ratio(float64(res.fp), float64(res.absent)), under, cmBudget)
}

// recentDistinct estimates each sketch's window cardinality: the
// distinct keys among the last window keys the line set addresses to
// it before line end.
func recentDistinct(ls *lineSet, end, window int) map[string]float64 {
	out := map[string]float64{}
	for _, name := range []string{"bf", "cm", "hll"} {
		w := newExactWindow(window)
		for i := end - 1; w.size < window && i > end-1-len(ls.lines); i-- {
			l := (i%len(ls.lines) + len(ls.lines)) % len(ls.lines)
			if ls.names[l] == name {
				for _, k := range ls.keys[l] {
					w.push(k)
				}
			}
		}
		out[name] = float64(w.distinct())
	}
	return out
}

// answers returns the replies to the whole probe set, pipelined on c.
func (ps *probeSet) answers(c *client) ([]string, error) {
	out := make([]string, len(ps.lines))
	_, err := c.pipeline(ingestDepth, len(ps.lines), func(i int) []byte { return ps.lines[i] },
		func() bool { return false }, func(i int, rep []byte, _ time.Time) error {
			out[i] = strings.TrimSpace(string(rep))
			return nil
		})
	return out, err
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
