package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The durable workload: a primary with a WAL and -sync-replicas 1, a
// follower with a WAL, both at the default checkpoint size. Its work
// is a fixed count, not a time: per pair, durableLines insert lines and
// durableQueries queries, so the WAL bytes, the checkpoints and the
// WAL left at the kill fall at the same places in every run.
const (
	durableWindow  = 1 << 14
	durableWidth   = 16  // keys per timed MINSERT line
	prefillWidth   = 127 // keys per prefill line: the WAL's record width
	durableDepth   = 3   // insert lines outstanding, one per sketch
	durableLines   = 12000
	durableQueries = 200000
	durablePairs   = 5
	// durableCardEvery: one query in this many is SKETCH.CARD.
	durableCardEvery = 10
	// durableMargin prefills well past one cleaning cycle, so the WAL
	// is near its checkpoint size when the timed inserts begin and the
	// checkpoint falls early in them.
	durableMargin   = 3.0
	durableRestarts = 9
	// Blocks: 10 of insert lines and about 15 of queries per pair, each
	// large enough for a p99.
	durableBlockLines = 1200
	durableQueryBlock = 300 * time.Millisecond
	// semiSyncTimeout is the message of the named checkpoint fault: a
	// batch that triggers a checkpoint waits for a replica ack of the
	// fresh segment's start, which no replica can give.
	semiSyncTimeout = "timed out waiting for replica acks"
)

var durableSketches = []struct{ name, kind, params string }{
	{"bf", "bloom", fmt.Sprintf("bits=%d window=%d shards=%d seed=1", libBits, durableWindow, ingestShards)},
	{"cm", "cm", fmt.Sprintf("counters=%d window=%d shards=%d seed=1", libCounters, durableWindow, ingestShards)},
	{"hll", "hll", fmt.Sprintf("registers=%d window=%d shards=%d seed=1", libRegisters, durableWindow, ingestShards)},
}

// durablePair is a primary and its follower.
type durablePair struct {
	primary, follower *shedProc
	primaryWAL        string
}

func (d *durablePair) kill() {
	if d.primary != nil {
		d.primary.kill()
	}
	if d.follower != nil {
		d.follower.kill()
	}
}

// startPair starts a primary and a follower on fresh WAL directories,
// waits until the follower has full-synced and attached, then creates
// and prefills the sketches.
func startPair(r *run, n int, pre []uint64) (*durablePair, map[string]int64, error) {
	d := &durablePair{primaryWAL: filepath.Join(r.dir, fmt.Sprintf("primary-%d", n))}
	var err error
	if d.primary, err = startShed(r.shedBin, "-wal", d.primaryWAL, "-sync-replicas", "1"); err != nil {
		return nil, nil, err
	}
	if d.follower, err = startShed(r.shedBin, "-wal", filepath.Join(r.dir, fmt.Sprintf("follower-%d", n)),
		"-replicaof", d.primary.addr); err != nil {
		d.kill()
		return nil, nil, err
	}
	c, err := dial(d.primary.addr)
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	defer c.close()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		role, err := c.array("ROLE")
		if err != nil {
			d.kill()
			return nil, nil, err
		}
		if len(role) > 0 && strings.Contains(role[0], "replicas=1") {
			break
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, nil, fmt.Errorf("follower did not attach: %v", role)
		}
	}
	acked, err := setupSketches(c, durableSketches, pre, prefillWidth, ingestDepth, durableMargin)
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	return d, acked, nil
}

func runDurable(r *run) error {
	names := []string{"bf", "cm", "hll"}
	lines := minsertLines(zipfKeys(r.seed, durableLines*durableWidth), durableWidth, names)
	pre := zipfKeys(r.seed^0x5eed, 1<<20)

	// Each pair is set up and runs the same fixed work; the metrics are
	// medians over the blocks of all pairs. Processes started afresh
	// land differently on the machine's two CPUs, and one pair per run
	// would carry that luck into the run's figures.
	var setups []float64
	var insBlocks, qBlocks blockStats
	var d *durablePair
	var acked map[string]int64
	var ins *insertRun
	for pair := 0; pair < durablePairs; pair++ {
		if d != nil {
			d.kill()
		}
		r.clientFrom = selfCPU() // client CPU is counted over the last pair's life
		t0 := time.Now()
		var err error
		if d, acked, err = startPair(r, pair, pre); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if ins, err = durablePhase(r, d, lines, pair, &insBlocks, &qBlocks); err != nil {
			d.kill()
			return err
		}
	}
	defer d.kill()
	r.set("setup_s", median(setups))
	r.setBlocks("insert_kps", "ack", "ms", 1e6, &insBlocks)
	r.setBlocks("query_kps", "query", "us", 1e3, &qBlocks)
	r.attempted = durablePairs * (durableLines + durableQueries)
	for n, k := range ins.keys {
		acked[n] += k
	}

	// The oracle, on the last pair: the last Window/shards acked keys
	// of each sketch.
	windows := map[string]*exactWindow{}
	for _, n := range []string{"bf", "cm"} {
		windows[n] = newExactWindow(durableWindow / ingestShards)
	}
	for _, l := range ins.ackedLines {
		if w := windows[lines.names[l]]; w != nil {
			for _, k := range lines.keys[l] {
				w.push(k)
			}
		}
	}
	ps := newProbeSet(r.seed, windows)
	ps.distinct = recentDistinct(lines, len(lines.lines), durableWindow)

	pc, err := dial(d.primary.addr)
	if err != nil {
		return err
	}
	defer pc.close()
	for _, s := range durableSketches {
		st, err := pc.kv("SKETCH.STATS " + s.name)
		if err != nil {
			return err
		}
		n, _ := strconv.ParseInt(st["inserts"], 10, 64)
		// Keys of a failed batch are applied and logged before its
		// commit fails, so they may count without an ack.
		r.check(n >= acked[s.name] && n <= acked[s.name]+ins.failedKeys[s.name],
			"durable: SKETCH.STATS %s inserts=%d, acked %d, failed %d", s.name, n, acked[s.name], ins.failedKeys[s.name])
	}
	primaryAns, err := judgeNode(r, "durable primary", pc, ps)
	if err != nil {
		return err
	}
	if r.info, err = pc.kv("INFO"); err != nil {
		return err
	}
	pc.close()
	fc, err := dial(d.follower.addr)
	if err != nil {
		return err
	}
	followerAns, err := judgeNode(r, "durable follower", fc, ps)
	fc.close()
	if err != nil {
		return err
	}
	r.check(equalStrings(primaryAns.probes, followerAns.probes), "durable: follower answers the probe set differently from the primary")

	// Kill the primary, keep its WAL, and restart it on a copy of that
	// WAL several times.
	cpu, rss := usage(d.primary.kill())
	r.shedCPU = cpu
	r.set("rss_mb", rss)
	r.followerCPU, _ = usage(d.follower.stop(syscall.SIGTERM))
	r.walLeftAtKill = filepath.Join(r.dir, "wal-at-kill")
	if err := copyDir(d.primaryWAL, r.walLeftAtKill); err != nil {
		return err
	}
	var restarts []float64
	var restarted *shedProc
	for i := 0; i < durableRestarts; i++ {
		if restarted != nil {
			restarted.kill()
		}
		dir := filepath.Join(r.dir, fmt.Sprintf("restart-%d", i))
		if err := copyDir(r.walLeftAtKill, dir); err != nil {
			return err
		}
		if restarted, err = startShed(r.shedBin, "-wal", dir, "-sync-replicas", "1"); err != nil {
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
	restartAns, err := judgeNode(r, "durable restarted primary", rc, ps)
	rc.close()
	if err != nil {
		return err
	}
	r.check(equalStrings(primaryAns.probes, restartAns.probes), "durable: restarted primary answers the probe set differently from the primary before the kill")
	// SKETCH.CARD is not compared: its estimate also cleans registers,
	// so it depends on the reads a node has served (see README.md).
	r.note("SKETCH.CARD hll: primary %s, follower %s, restarted primary %s", primaryAns.card, followerAns.card, restartAns.card)

	for _, v := range acked {
		r.ackedKeys += v
	}
	r.layerIn = &layerInput{keys: lines.keysFlat(1 << 18), width: durableWidth, linesPerBatch: 1,
		window: durableWindow, shards: ingestShards, bits: libBits, counters: libCounters, registers: libRegisters}
	return nil
}

// durablePhase runs one pair's timed work: the insert connection and
// the query connection side by side, each for its fixed count. Only
// operations that completed before the first of the two ended are
// timed, so every timed operation had the other kind beside it; which
// kind ends first depends on the machine and on the program's relative
// speed of reads and writes. Blocks are appended to insBlocks and
// qBlocks.
func durablePhase(r *run, d *durablePair, lines *lineSet, pair int, insBlocks, qBlocks *blockStats) (*insertRun, error) {
	ins := &insertRun{}
	var queries []event
	phase := r.tr.begin("durable.run", 0, uint64(pair))
	t0 := time.Now()
	err := parallel(2, func(i int) error {
		if i == 0 {
			return ins.run(r, d.primary.addr, lines, phase.id, t0)
		}
		c, err := dial(d.primary.addr)
		if err != nil {
			return err
		}
		defer c.close()
		for j := 0; j < durableQueries; j++ {
			// Per round of durableCardEvery queries: alternating point
			// queries to bf and cm, then one SKETCH.CARD (a scan of
			// every register, the costliest read).
			k := lines.keys[j/2%len(lines.keys)][j%durableWidth]
			var q string
			card := j%durableCardEvery == durableCardEvery-1
			switch {
			case card:
				q = "SKETCH.CARD hll"
			case j%2 == 0:
				q = "SKETCH.QUERY bf " + strconv.FormatUint(k, 10)
			default:
				q = "SKETCH.QUERY cm " + strconv.FormatUint(k, 10)
			}
			sent := time.Now()
			rep, err := c.do(q)
			now := time.Now()
			if err != nil {
				return err
			}
			if !strings.HasPrefix(rep, ":") && !(card && strings.HasPrefix(rep, "+")) {
				return fmt.Errorf("%s: %s", q, rep)
			}
			queries = append(queries, event{now.Sub(t0).Nanoseconds(), now.Sub(sent).Nanoseconds()})
			r.tr.record("wire.QUERY", phase.id, uint64(pair)<<40|uint64(j), sent, now, 1)
		}
		return nil
	})
	r.tr.finish(phase, durableLines+durableQueries)
	if err != nil {
		return nil, err
	}
	r.failed += ins.failedLines
	for _, msg := range ins.otherErrors {
		r.check(false, "durable: insert failed other than by the checkpoint fault: %s", msg)
	}
	end := min(ins.elapsed.Nanoseconds(), queries[len(queries)-1].at)
	acks, beside := until(ins.acks, end), until(queries, end)
	blocks, err := cutByCount(acks, durableBlockLines, durableWidth)
	if err != nil {
		return nil, err
	}
	insBlocks.merge(blocks)
	if blocks, err = cutByTime(beside, durableQueryBlock, 1); err != nil {
		return nil, err
	}
	qBlocks.merge(blocks)
	r.note("durable pair %d: inserts %.2fs, %d lines acked, %d failed in %d semi-sync checkpoint stalls; %d acks and %d queries timed beside each other",
		pair, ins.elapsed.Seconds(), len(ins.ackedLines), ins.failedLines, ins.stalls, len(acks), len(beside))
	return ins, nil
}

// until returns the prefix of events, in completion order, that
// completed by end.
func until(events []event, end int64) []event {
	n := len(events)
	for n > 0 && events[n-1].at > end {
		n--
	}
	return events[:n]
}

// nodeAnswers is one node's replies to the probe set, and its HLL
// estimate.
type nodeAnswers struct {
	probes []string
	card   string
}

// judgeNode runs the probe set against one node, checks the per-key
// guarantees, and returns the node's answers.
func judgeNode(r *run, who string, c *client, ps *probeSet) (nodeAnswers, error) {
	ans, err := ps.answers(c)
	if err != nil {
		return nodeAnswers{}, err
	}
	res := &probeResult{}
	for i, a := range ans {
		if err := ps.judge(i, []byte(a), res); err != nil {
			return nodeAnswers{}, err
		}
	}
	ps.check(r, who, res, ingestShards)
	card, err := c.do("SKETCH.CARD hll")
	return nodeAnswers{ans, card}, err
}

// insertRun is the durable insert connection: durableLines lines in a
// closed loop with durableDepth outstanding. When a commit fails, the
// server replies -ERR and closes the connection; every line then
// outstanding counts as failed, and the loop reconnects and goes on
// with the next line.
type insertRun struct {
	acks        []event
	ackedLines  []int // line indices, in ack order
	keys        map[string]int64
	failedKeys  map[string]int64
	failedLines int64
	stalls      int
	otherErrors []string
	elapsed     time.Duration
}

func (in *insertRun) run(r *run, addr string, lines *lineSet, parent uint64, t0 time.Time) error {
	in.keys, in.failedKeys = map[string]int64{}, map[string]int64{}
	next := 0
	for next < durableLines {
		c, err := dial(addr)
		if err != nil {
			return err
		}
		first := next
		sent, err := c.pipeline(durableDepth, durableLines-first,
			func(j int) []byte { return lines.lines[first+j] },
			func() bool { return false },
			func(j int, rep []byte, sent time.Time) error {
				now := time.Now()
				l := first + j
				if k, ok := parseCount(rep); !ok || k != durableWidth {
					return fmt.Errorf("%s", strings.TrimSpace(string(rep)))
				}
				in.acks = append(in.acks, event{now.Sub(t0).Nanoseconds(), now.Sub(sent).Nanoseconds()})
				r.tr.record("wire.MINSERT", parent, uint64(l), sent, now, durableWidth)
				in.ackedLines = append(in.ackedLines, l)
				in.keys[lines.names[l]] += durableWidth
				next = l + 1
				return nil
			})
		c.close()
		if err == nil {
			break
		}
		// Every line sent but not acked failed.
		if strings.Contains(err.Error(), semiSyncTimeout) {
			in.stalls++
		} else {
			in.otherErrors = append(in.otherErrors, err.Error())
		}
		for l := next; l < first+sent; l++ {
			in.failedLines++
			in.failedKeys[lines.names[l]] += durableWidth
		}
		next = first + sent
	}
	in.elapsed = time.Since(t0)
	return nil
}
