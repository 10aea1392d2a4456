package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"she"
	"she/internal/audit"
	"she/internal/repl"
	"she/internal/server"
	"she/internal/sketch"
	"she/internal/wal"
)

// layerInput is a workload's generated input and geometry, replayed
// through each layer's public functions one layer at a time.
type layerInput struct {
	keys          []uint64
	width         int // keys per MINSERT line
	linesPerBatch int // MINSERT lines per WAL append and fsync
	window        int
	shards        int
	bits          int
	counters      int
	registers     int
}

// Replay chunk sizes: one span covers this many calls, so the span's
// own cost stays small against the calls it times.
const (
	keyChunk  = 1024
	lineChunk = 64
	walKeys   = 1 << 17
)

// layers replays the workload's input layer by layer under spans,
// writes the spans, prints the per-layer table and sets the per-layer
// metrics.
func layers(r *run) error {
	in, t := r.layerIn, r.tr
	keys := in.keys
	names := []string{"bf", "cm"}

	opts := func(alpha float64) she.Options {
		return she.Options{Window: uint64(in.window), Alpha: alpha, Seed: 1}
	}
	root := t.begin("layer.core", 0, 0)
	bf, err := she.NewBloomFilter(in.bits, opts(alphaBF))
	if err != nil {
		return err
	}
	cm, err := she.NewCountMin(in.counters, opts(alphaCM))
	if err != nil {
		return err
	}
	hll, err := she.NewHyperLogLog(in.registers, opts(alphaHLL))
	if err != nil {
		return err
	}
	var sink uint64
	chunked(t, root.id, "core.BloomFilter.Insert", keys, func(k uint64) { bf.Insert(k) })
	chunked(t, root.id, "core.CountMin.Insert", keys, func(k uint64) { cm.Insert(k) })
	chunked(t, root.id, "core.HyperLogLog.Insert", keys, func(k uint64) { hll.Insert(k) })
	chunked(t, root.id, "core.BloomFilter.Query", keys, func(k uint64) {
		if bf.Query(k) {
			sink++
		}
	})
	chunked(t, root.id, "core.CountMin.Frequency", keys, func(k uint64) { sink += cm.Frequency(k) })
	t.finish(root, 0)

	root = t.begin("layer.sketch", 0, 0)
	ibf := sketch.NewBloomFilter(in.bits, hashes, 1)
	icm := sketch.NewCountMin(in.counters, hashes, 1)
	chunked(t, root.id, "sketch.BloomFilter.Insert", keys, func(k uint64) { ibf.Insert(k) })
	chunked(t, root.id, "sketch.CountMin.Insert", keys, func(k uint64) { icm.Insert(k) })
	t.finish(root, 0)

	root = t.begin("layer.she", 0, 0)
	sbf, err := she.NewShardedBloomFilter(in.bits, in.shards, opts(alphaBF))
	if err != nil {
		return err
	}
	scm, err := she.NewShardedCountMin(in.counters, in.shards, opts(alphaCM))
	if err != nil {
		return err
	}
	chunked(t, root.id, "she.Sharded.Insert", keys, func(k uint64) { sbf.Insert(k) })
	chunked(t, root.id, "she.Sharded.Insert", keys, func(k uint64) { scm.Insert(k) })
	t.finish(root, 0)

	// The server layer: the tokenizer on the workload's request lines,
	// then the registry path a batch takes per key.
	ls := minsertLines(keys, in.width, names)
	mlines := make([]string, len(ls.lines))
	for i, l := range ls.lines {
		mlines[i] = string(l[:len(l)-1])
	}
	qlines := make([]string, len(keys)/in.width)
	for i := range qlines {
		q := appendQuery(nil, names[i%2], keys[i*in.width])
		qlines[i] = string(q[:len(q)-1])
	}
	root = t.begin("layer.server", 0, 0)
	parse := func(name string, lines []string) error {
		for i := 0; i < len(lines); i += lineChunk {
			end := min(i+lineChunk, len(lines))
			sp := t.begin(name, root.id, 0)
			for _, l := range lines[i:end] {
				if _, err := server.ParseCommand(l); err != nil {
					return fmt.Errorf("ParseCommand %.40q: %w", l, err)
				}
			}
			t.finish(sp, end-i)
		}
		return nil
	}
	if err := parse("server.ParseCommand.MINSERT", mlines); err != nil {
		return err
	}
	if err := parse("server.ParseCommand.QUERY", qlines); err != nil {
		return err
	}
	reg := server.NewRegistry(audit.Config{})
	geo := func(size string, n int) map[string]string {
		return map[string]string{size: strconv.Itoa(n), "window": strconv.Itoa(in.window),
			"shards": strconv.Itoa(in.shards), "seed": "1"}
	}
	if err := reg.Create("bf", "bloom", geo("bits", in.bits)); err != nil {
		return err
	}
	if err := reg.Create("cm", "cm", geo("counters", in.counters)); err != nil {
		return err
	}
	nameBytes := [][]byte{[]byte("bf"), []byte("cm")}
	for i := 0; i < len(ls.keys); i += lineChunk {
		end := min(i+lineChunk, len(ls.keys))
		sp := t.begin("server.Registry.Insert", root.id, 0)
		n := 0
		for j := i; j < end; j++ {
			sk := reg.GetBytes(nameBytes[j%2])
			for _, k := range ls.keys[j] {
				sk.Insert(k)
			}
			n += len(ls.keys[j])
		}
		t.finish(sp, n)
	}
	t.finish(root, 0)

	// The WAL: the workload's records in its batch shape, each batch
	// appended and fsynced, on the file system that holds the run.
	recs := ls.lines
	if n := walKeys / in.width; n < len(recs) {
		recs = recs[:n]
	}
	walDir := filepath.Join(r.dir, "layer-wal")
	root = t.begin("layer.wal", 0, 0)
	lg, _, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		return err
	}
	payloads := make([][]byte, 0, in.linesPerBatch)
	for i := 0; i < len(recs); i += in.linesPerBatch {
		payloads = payloads[:0]
		for _, l := range recs[i:min(i+in.linesPerBatch, len(recs))] {
			payloads = append(payloads, l[:len(l)-1])
		}
		sp := t.begin("wal.Log.AppendBatch", root.id, uint64(i))
		if err := lg.AppendBatch(payloads, nil); err != nil {
			lg.Close()
			return err
		}
		t.finish(sp, 1)
		sp = t.begin("wal.Log.Sync", root.id, uint64(i))
		if err := lg.Sync(); err != nil {
			lg.Close()
			return err
		}
		t.finish(sp, 1)
	}
	walBytes := lg.BytesSinceCheckpoint()
	if err := lg.Close(); err != nil {
		return err
	}
	// wal.Open reads and validates a log without applying it: the
	// durable workload's log as its kill left it, else the one above.
	src := walDir
	if r.walLeftAtKill != "" {
		src = r.walLeftAtKill
	}
	openDir := filepath.Join(r.dir, "layer-wal-open")
	if err := copyDir(src, openDir); err != nil {
		return err
	}
	sp := t.begin("wal.Open", root.id, 0)
	lg, rec, err := wal.Open(openDir, wal.Options{})
	if err != nil {
		return err
	}
	t.finish(sp, 1)
	r.note("wal.Open on %s: %d records to replay", filepath.Base(src), len(rec.Records))
	lg.Close()
	t.finish(root, 0)

	root = t.begin("layer.repl", 0, 0)
	bw := bufio.NewWriter(io.Discard)
	var off int64
	for i := 0; i < len(recs); i += lineChunk {
		end := min(i+lineChunk, len(recs))
		sp := t.begin("repl.WriteRecord", root.id, 0)
		for _, l := range recs[i:end] {
			off += int64(len(l))
			if err := repl.WriteRecord(bw, wal.Cursor{Gen: 1, Seg: 1, Off: off}, l[:len(l)-1], 0); err != nil {
				return err
			}
		}
		t.finish(sp, end-i)
	}
	t.finish(root, 0)

	st := t.stats()
	set := func(name string, span string) { r.set(name, nsPerOp(st, span)) }
	set("core.bf_insert_ns", "core.BloomFilter.Insert")
	set("core.cm_insert_ns", "core.CountMin.Insert")
	set("core.hll_insert_ns", "core.HyperLogLog.Insert")
	set("core.bf_query_ns", "core.BloomFilter.Query")
	set("core.cm_query_ns", "core.CountMin.Frequency")
	set("sketch.bf_insert_ns", "sketch.BloomFilter.Insert")
	set("sketch.cm_insert_ns", "sketch.CountMin.Insert")
	r.set("core.bf_ideal_ratio", r.metrics["core.bf_insert_ns"]/r.metrics["sketch.bf_insert_ns"])
	r.set("core.cm_ideal_ratio", r.metrics["core.cm_insert_ns"]/r.metrics["sketch.cm_insert_ns"])
	set("she.sharded_insert_ns", "she.Sharded.Insert")
	set("server.parse_minsert_ns", "server.ParseCommand.MINSERT")
	set("server.parse_query_ns", "server.ParseCommand.QUERY")
	set("server.registry_insert_ns", "server.Registry.Insert")
	r.set("wal.append_us", nsPerOp(st, "wal.Log.AppendBatch")/1e3)
	r.set("wal.sync_us", nsPerOp(st, "wal.Log.Sync")/1e3)
	r.set("wal.bytes_per_key", float64(walBytes)/float64(len(recs)*in.width))
	r.set("wal.open_s", nsPerOp(st, "wal.Open")/1e9)
	set("repl.record_ns", "repl.WriteRecord")

	// From the running program: INFO counters and child CPU.
	r.set("server.keys_per_apply", ratio(infoFloat(r.info, "batch_keys_total"), infoFloat(r.info, "batch_applies_total")))
	r.set("repl.sync_timeouts", infoFloat(r.info, "repl_sync_timeouts"))
	kkeys := float64(r.ackedKeys) / 1e3
	r.set("shed.cpu_us_per_kkey", ratio(float64(r.shedCPU.Microseconds()), kkeys))
	r.set("follower.cpu_us_per_kkey", ratio(float64(r.followerCPU.Microseconds()), kkeys))
	r.set("client.cpu_us_per_kkey", ratio(float64(r.clientCPU.Microseconds()), kkeys))

	fmt.Println("per-layer table (traced run; self times from the kept spans):")
	writeTable(os.Stdout, st)
	spanDir := mustMkdir(filepath.Join(filepath.Dir(filepath.Dir(r.dir)), "spans"))
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
	if err := t.writeFile(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s, %d more counted in the totals only (sink %d)\n", len(t.spans), path, t.dropped, sink%2)
	return nil
}

// chunked calls fn on every key, under one span per keyChunk keys.
func chunked(t *tracer, parent uint64, name string, keys []uint64, fn func(uint64)) {
	for i := 0; i < len(keys); i += keyChunk {
		end := min(i+keyChunk, len(keys))
		sp := t.begin(name, parent, 0)
		for _, k := range keys[i:end] {
			fn(k)
		}
		t.finish(sp, end-i)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func infoFloat(info map[string]string, key string) float64 {
	v, _ := strconv.ParseFloat(info[key], 64)
	return v
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, fi.Mode().Perm())
	})
}
