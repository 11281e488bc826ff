// Command perfbench is the repository benchmark. Each run measures one
// workload for --seconds seconds, checks that every output is correct,
// and prints one JSON result as the last line of standard output:
// end-to-end metrics with --trace 0, per-layer metrics (from spans and an
// in-process layer ladder) with --trace 1. perfbench/run.sh builds it and
// dpdserver from source and passes the built server's path.
//
// Workloads (why each exists, and what each layer metric should move on
// it, is written down in perfbench/RATIONALE.md):
//
//	paper_traces          in-process replay of the paper's traces
//	ingest_small_batches  event engine behind loopback TCP, 16-sample frames
//	serve_nested_mixed    multiscale engine behind loopback TCP, zipf keys,
//	                      HTTP queries and a durable checkpoint loop
//
// --repeat N runs one workload N times back to back through the command
// in BENCHMARK.json and prints each metric's median and quartiles next
// to its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the run's flags. The load constants (rates, latency
// limits) have no defaults: BENCHMARK.json's command fixes them, so a
// parent and a change are measured under the same load.
type options struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	server     string
	work       string
	smallRate  float64
	nestedRate float64
	queryRate  float64
	limit      float64
	repeat     int
}

// watchdog bounds a run: past it every server is killed and the run
// fails, so the benchmark always exits within 180 seconds.
const watchdog = 165 * time.Second

// bench is one run's state: its options, the referee's counters, the
// metrics reported so far and every server process it started.
type bench struct {
	opt      options
	dir      string // scratch directory of this run, removed at exit
	tr       *tracer
	manifest *benchFile
	metrics  map[string]metric
	cal      *calibState // paper_traces' host-speed calibration (calib.go)

	mu        sync.Mutex
	attempted int64
	failed    int64
	servers   []*serverProc
}

// ok counts n attempted operations.
func (b *bench) ok(n int64) {
	b.mu.Lock()
	b.attempted += n
	b.mu.Unlock()
}

// fail counts one failed operation and says why on standard error.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	b.attempted++
	b.failed++
	b.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// failN counts n failed operations of one kind at once.
func (b *bench) failN(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.attempted += n
	b.failed += n
	b.mu.Unlock()
	fmt.Fprintf(os.Stderr, "perfbench: FAIL ×%d: "+format+"\n", append([]any{n}, args...)...)
}

// set records a metric.
func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// scaled records raw divided by the host factor f (calib.go) and logs
// both.
func (b *bench) scaled(name, unit string, raw, f float64) {
	b.set(name, unit, raw/f)
	logf("%s raw %.4f %s, host factor %.3f", name, raw, unit, f)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "paper_traces | ingest_small_batches | serve_nested_mixed")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 0, "measured seconds (with --repeat, 0 takes run_seconds from BENCHMARK.json)")
	traceN := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.server, "server", "", "path of the dpdserver binary")
	flag.StringVar(&o.work, "work", "", "build directory for scratch files and span dumps")
	flag.Float64Var(&o.smallRate, "small-rate", 0, "ingest_small_batches fixed offered rate in the traced run, samples/s")
	flag.Float64Var(&o.nestedRate, "nested-rate", 0, "serve_nested_mixed (and paper_traces' served replay) fixed offered rate in the traced run, samples/s")
	flag.Float64Var(&o.queryRate, "query-rate", 0, "query rate, GET/s: beside serve_nested_mixed's ingest, and in every traced run")
	flag.Float64Var(&o.limit, "limit-ms", 0, "serving workloads' latency limit on ingest p99, ms")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workload this many times through BENCHMARK.json's command and summarize")
	flag.Parse()
	o.trace = *traceN == 1

	if o.repeat > 0 {
		if err := repeatMode(o); err != nil {
			logf("%v", err)
			return 1
		}
		return 0
	}
	if err := o.validate(); err != nil {
		logf("%v", err)
		return 2
	}
	manifest, err := loadManifest()
	if err != nil {
		logf("%v", err)
		return 1
	}

	dir, err := os.MkdirTemp(o.work, "run-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	b := &bench{opt: o, dir: dir, manifest: manifest, metrics: map[string]metric{}}
	if o.trace {
		b.tr = newTracer()
	}
	defer os.RemoveAll(dir)
	defer b.stopServers()

	// A signal or the watchdog stops every server before exiting, so no
	// process outlives the run.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			logf("stopping on %v", s)
		case <-time.After(watchdog):
			logf("watchdog: run exceeded its time budget")
		}
		b.killServers()
		os.RemoveAll(dir)
		os.Exit(1)
	}()

	switch o.workload {
	case "paper_traces":
		err = b.paperTraces()
	case "ingest_small_batches":
		err = b.serve(smallSpec(o))
	case "serve_nested_mixed":
		err = b.serve(nestedSpec(o))
	}
	if err != nil {
		logf("%s: %v", o.workload, err)
		return 1
	}
	if b.tr != nil {
		path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.csv", o.workload, o.seed))
		if err := b.tr.write(path); err != nil {
			logf("writing spans: %v", err)
			return 1
		}
		logf("spans written to %s", path)
	}
	return b.print()
}

// validate rejects flag combinations a run cannot measure.
func (o *options) validate() error {
	switch o.workload {
	case "paper_traces":
		// The traced run serves the Table 2 traces at the nested rate.
		if o.nestedRate <= 0 || o.queryRate <= 0 {
			return fmt.Errorf("%s needs -nested-rate and -query-rate", o.workload)
		}
	case "ingest_small_batches":
		if o.smallRate <= 0 || o.limit <= 0 || o.queryRate <= 0 {
			return fmt.Errorf("%s needs -small-rate, -limit-ms and -query-rate", o.workload)
		}
	case "serve_nested_mixed":
		if o.nestedRate <= 0 || o.limit <= 0 || o.queryRate <= 0 {
			return fmt.Errorf("%s needs -nested-rate, -limit-ms and -query-rate", o.workload)
		}
	default:
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if o.work == "" || o.server == "" {
		return fmt.Errorf("-work and -server are set by perfbench/run.sh; run the benchmark through it")
	}
	return nil
}

// print writes the result line and returns the exit code.
func (b *bench) print() int {
	b.mu.Lock()
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	b.mu.Unlock()
	if res.Attempted < 1 {
		logf("no operation was attempted")
		return 1
	}
	if err := b.manifest.checkMetrics(b.opt.trace, res.Metrics); err != nil {
		logf("%v", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		logf("%-32s %14.4f %s", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// vmHWM returns the peak resident set size of process pid in MiB.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
