// Command benchmark measures SHE and shed end to end and layer by
// layer. It runs one workload per invocation against the program from
// outside: the she package in process, and cmd/shed as child processes
// over loopback. It checks every workload's outputs against its own
// exact computation and prints, as its last line, one JSON object with
// the metrics, the operations attempted and failed, and whether every
// check passed. See README.md for the workloads and metrics.
//
//	benchmark --workload ingest --seed 1 --seconds 10 --trace 0
//	benchmark --workload ingest --seed 1 --seconds 10 --repeat 10
//	benchmark --write-spec BENCHMARK.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of SHE or shed sees. Every workload
// reports all of them; README.md says what each one times in each
// workload. Each bound is about three times the largest spread
// (interquartile range over median, ten seeds) any workload showed in
// repeat mode, capped at 0.25.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"insert_kps", "kkeys/s", "higher", 0.25},
	{"query_kps", "kqueries/s", "higher", 0.25},
	{"ack_p50_ms", "ms", "lower", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
}

// perLayer are the traced run's metrics, named after the modules whose
// public functions they time. A metric whose layer does not run in a
// workload reads 0 there (README.md lists which).
var perLayer = []metricDef{
	{"core.bf_insert_ns", "ns/call", "lower", 0},
	{"core.cm_insert_ns", "ns/call", "lower", 0},
	{"core.hll_insert_ns", "ns/call", "lower", 0},
	{"core.bf_query_ns", "ns/call", "lower", 0},
	{"core.cm_query_ns", "ns/call", "lower", 0},
	{"sketch.bf_insert_ns", "ns/call", "lower", 0},
	{"sketch.cm_insert_ns", "ns/call", "lower", 0},
	{"core.bf_ideal_ratio", "ratio", "lower", 0},
	{"core.cm_ideal_ratio", "ratio", "lower", 0},
	{"she.sharded_insert_ns", "ns/call", "lower", 0},
	{"server.parse_minsert_ns", "ns/line", "lower", 0},
	{"server.parse_query_ns", "ns/line", "lower", 0},
	{"server.registry_insert_ns", "ns/key", "lower", 0},
	{"server.keys_per_apply", "keys", "higher", 0},
	{"wal.append_us", "us/batch", "lower", 0},
	{"wal.sync_us", "us/call", "lower", 0},
	{"wal.bytes_per_key", "B", "lower", 0},
	{"wal.open_s", "s", "lower", 0},
	{"repl.record_ns", "ns/record", "lower", 0},
	{"repl.sync_timeouts", "count", "lower", 0},
	{"shed.cpu_us_per_kkey", "us", "lower", 0},
	{"follower.cpu_us_per_kkey", "us", "lower", 0},
	{"client.cpu_us_per_kkey", "us", "lower", 0},
}

type workload struct {
	name, why string
	run       func(r *run) error
}

var workloads = []workload{
	{"library", "she package in process, one goroutine: core, hashing and bitpack only, the paper's Fig 10/11 setting", runLibrary},
	{"ingest", "shed without a WAL at saturation: tokenizer, batch engine, registry, sharded wrapper and kernel", runIngest},
	{"durable", "shed primary and follower with WALs and semi-sync acks: group commit, fsync, shipping, apply, recovery", runDurable},
}

// runSeconds is the run length BENCHMARK.json asks for.
const runSeconds = 20

// run is the state of one workload invocation.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	shedBin  string
	dir      string // this run's private directory for WALs and snapshots
	tr       *tracer

	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
	layerIn   *layerInput // the workload's input, replayed layer by layer when traced

	// Filled by the workloads for the per-layer metrics.
	info          map[string]string // primary INFO at the end of the run
	ackedKeys     int64
	shedCPU       time.Duration
	followerCPU   time.Duration
	clientCPU     time.Duration
	clientFrom    time.Duration // this process's CPU when the measured shed process started
	walLeftAtKill string
}

// check records a failed output check; the run then reports
// correct=false and exits non-zero.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", msg)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// note prints a reference figure that is not a metric.
func (r *run) note(format string, args ...any) {
	fmt.Printf("  "+format+"\n", args...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: library, ingest or durable")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "measurement length of a time-bounded phase")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times with seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
	shedBin := flag.String("shed", "", "path of the shed binary")
	work := flag.String("work", ".bench_build", "directory for run files (WALs, snapshots, spans)")
	spec := flag.String("write-spec", "", "write the benchmark definition (BENCHMARK.json) to this file and exit")
	flag.Parse()

	if *spec != "" {
		if err := writeSpec(*spec); err != nil {
			fatal(err)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *repeat > 0 {
		if err := repeatMode(*repeat); err != nil {
			fatal(err)
		}
		return
	}
	if _, err := os.Stat(*shedBin); err != nil {
		fatal(fmt.Errorf("shed binary: %w", err))
	}
	dir, err := os.MkdirTemp(mustMkdir(filepath.Join(*work, "runs")), wl.name+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)

	r := &run{workload: wl.name, seed: *seed, seconds: *seconds, shedBin: *shedBin, dir: dir,
		metrics: map[string]float64{}}
	if *trace == 1 {
		r.tr = newTracer()
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d\n", wl.name, *seed, *seconds, *trace)
	fmt.Printf("machine: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	r.clientFrom = selfCPU()
	if err := wl.run(r); err != nil {
		os.RemoveAll(dir)
		fatal(fmt.Errorf("%s: %w", wl.name, err))
	}
	r.clientCPU = selfCPU() - r.clientFrom

	defs := endToEnd
	lastPath := filepath.Join(*work, "last-untraced-"+wl.name+".json")
	if r.tr != nil {
		untraced := r.metrics
		r.metrics = map[string]float64{}
		if err := layers(r); err != nil {
			os.RemoveAll(dir)
			fatal(fmt.Errorf("layers: %w", err))
		}
		printOverhead(lastPath, untraced)
		defs = perLayer
	} else if b, err := json.Marshal(r.metrics); err == nil {
		_ = os.WriteFile(lastPath, b, 0o644) // only feeds the traced run's overhead report
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s not measured", d.Name)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Printf("  %-26s %14.4f %s\n", d.Name, v, d.Unit)
	}
	res.Correct = len(r.problems) == 0
	fmt.Printf("  attempted %d failed %d correct %v\n", r.attempted, r.failed, res.Correct)
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	os.RemoveAll(dir)
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// printOverhead compares the traced run's end-to-end metrics with the
// last untraced run of the same workload in this work directory.
func printOverhead(lastPath string, traced map[string]float64) {
	fmt.Println("tracing overhead (traced vs last untraced run of this workload):")
	b, err := os.ReadFile(lastPath)
	var untraced map[string]float64
	if err == nil {
		err = json.Unmarshal(b, &untraced)
	}
	if err != nil {
		fmt.Println("  no untraced run on record; run with --trace 0 first")
		return
	}
	for _, d := range endToEnd {
		u, t := untraced[d.Name], traced[d.Name]
		if u == 0 {
			continue
		}
		fmt.Printf("  %-26s untraced %12.4f traced %12.4f  %+6.1f%%\n", d.Name, u, t, 100*(t-u)/u)
	}
}

// repeatMode runs this workload n times as child processes with
// consecutive seeds and prints each end-to-end metric's median,
// quartiles, (q3-q1)/median and (max-min)/median.
func repeatMode(n int) error {
	var args []string
	var seed uint64 = 1
	skip := false
	for i, a := range os.Args[1:] {
		if skip {
			skip = false
			continue
		}
		key := strings.TrimLeft(strings.SplitN(a, "=", 2)[0], "-")
		if key == "repeat" || key == "seed" {
			val := ""
			if strings.Contains(a, "=") {
				val = strings.SplitN(a, "=", 2)[1]
			} else if i+2 < len(os.Args) {
				val, skip = os.Args[i+2], true
			}
			if key == "seed" {
				s, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return fmt.Errorf("bad seed %q", val)
				}
				seed = s
			}
			continue
		}
		args = append(args, a)
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var shares []float64
	var names []string
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(os.Args[0], append(args, "--seed", strconv.FormatUint(s, 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			return fmt.Errorf("seed %d: no result (%v)", s, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
		if !res.Correct {
			return fmt.Errorf("seed %d: checks failed", s)
		}
		shares = append(shares, float64(res.Failed)/float64(res.Attempted))
		for k, v := range res.Metrics {
			if _, ok := vals[k]; !ok {
				names = append(names, k)
			}
			vals[k] = append(vals[k], v.Value)
			units[k] = v.Unit
		}
	}
	sort.Strings(names)
	fmt.Printf("%-26s %-10s %12s %12s %12s %9s %9s  values\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "rng/med")
	for _, k := range names {
		v := vals[k]
		q1, m, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		fmt.Printf("%-26s %-10s %12.4f %12.4f %12.4f %8.2f%% %8.2f%%  %s\n", k, units[k], q1, m, q3,
			100*(q3-q1)/m, 100*(hi-lo)/m, fmtVals(v))
	}
	fmt.Printf("failed share per run: %v\n", shares)
	return nil
}

func fmtVals(v []float64) string {
	s := make([]string, len(v))
	for i, x := range v {
		s[i] = strconv.FormatFloat(x, 'g', 5, 64)
	}
	return strings.Join(s, " ")
}

// writeSpec writes BENCHMARK.json from the tables above, so the file
// and the code cannot disagree.
func writeSpec(path string) error {
	type wlSpec struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wlSpec    `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wlSpec{w.name, w.why})
	}
	spec.EndToEnd = endToEnd
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfCPU is the user plus system CPU this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is this process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mustMkdir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		fatal(err)
	}
	return d
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
