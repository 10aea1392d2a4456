package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into the program: a wire request, or a chunk of calls into one
// layer's public functions. ops is the number of operations the span
// covers, so per-call costs can be derived from chunked spans.
type span struct {
	id, parent, req uint64
	name            string
	start, end      int64 // nanoseconds since the tracer started
	ops             int
}

// maxSpansPerName bounds the spans of one name kept for the span file
// and for self times; spans past it still count in the per-name
// totals. The bound falls on the most frequent wire requests, so the
// self time of their phase span reads high when it binds.
const maxSpansPerName = 200_000

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	totals  map[string]*spanStat
	next    uint64
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), totals: map[string]*spanStat{}} }

// keep adds s to the totals and, below maxSpansPerName, to the kept
// spans.
// The caller holds t.mu.
func (t *tracer) keep(s span) {
	st := t.totals[s.name]
	if st == nil {
		st = &spanStat{name: s.name}
		t.totals[s.name] = st
	}
	st.count++
	st.ops += int64(s.ops)
	st.busy += s.end - s.start
	if st.count <= maxSpansPerName {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// begin opens a span; finish records it. Spans with the same req
// belong to one request.
func (t *tracer) begin(name string, parent, req uint64) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{id: id, parent: parent, req: req, name: name, start: t.now()}
}

func (t *tracer) finish(s span, ops int) {
	if t == nil {
		return
	}
	s.end = t.now()
	s.ops = ops
	t.mu.Lock()
	t.keep(s)
	t.mu.Unlock()
}

// record adds a span whose bounds the caller measured itself.
func (t *tracer) record(name string, parent, req uint64, start, end time.Time, ops int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.next++
	t.keep(span{id: t.next, parent: parent, req: req, name: name,
		start: start.Sub(t.t0).Nanoseconds(), end: end.Sub(t.t0).Nanoseconds(), ops: ops})
	t.mu.Unlock()
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// spanStat is one row of the per-layer table.
type spanStat struct {
	name       string
	count, ops int64
	busy, self int64 // nanoseconds
}

// stats returns the per-name totals with self times. A span's self
// time is its duration minus the part of it that its children's
// intervals cover (children may overlap, as pipelined requests do).
// Self times come from the kept spans only.
func (t *tracer) stats() map[string]*spanStat {
	kids := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	for _, st := range t.totals {
		st.self = 0
	}
	for _, s := range t.spans {
		t.totals[s.name].self += s.end - s.start - covered(kids[s.id], s.start, s.end)
	}
	return t.totals
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cs, ce := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > ce {
			if ce > cs {
				total += ce - cs
			}
			cs, ce = a, b
		} else if b > ce {
			ce = b
		}
	}
	if ce > cs {
		total += ce - cs
	}
	return total
}

// nsPerOp is the busy time per operation of the named spans.
func nsPerOp(st map[string]*spanStat, name string) float64 {
	s := st[name]
	if s == nil || s.ops == 0 {
		return 0
	}
	return float64(s.busy) / float64(s.ops)
}

// writeTable prints the per-layer table: span count, operations, busy
// time and self time per span name.
func writeTable(w io.Writer, st map[string]*spanStat) {
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %10s %12s %12s %12s %12s\n", "span", "count", "ops", "busy_ms", "self_ms", "ns/op")
	for _, n := range names {
		s := st[n]
		per := 0.0
		if s.ops > 0 {
			per = float64(s.busy) / float64(s.ops)
		}
		fmt.Fprintf(w, "%-28s %10d %12d %12.3f %12.3f %12.1f\n", n, s.count, s.ops,
			float64(s.busy)/1e6, float64(s.self)/1e6, per)
	}
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d,"ops":%d}`+"\n",
			s.id, s.parent, s.req, s.name, s.start, s.end, s.ops)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
