// Command gfbench is gfmap's end-to-end benchmark. It drives the system
// only through its public entry points — the real asyncmap binary, an
// in-process asyncmapd (server.New on a loopback listener) taking POST
// /map and POST /synth, and server.StartInProcessFleet taking /map/batch —
// on four named workloads, checks every output it receives, and prints one
// JSON result line.
//
// Usage, from the root of a checkout (run.sh builds both binaries):
//
//	bash cmd/gfbench/run.sh --workload map-actel --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the workload runs for --seconds and the result carries the
// end-to-end metrics. With --trace 1 it runs a fixed number of rounds twice,
// untraced and traced, interleaved, and the result carries the per-layer
// metrics; spans.jsonl and layers.json go to <out>/trace/<workload>/.
//
// Outputs are checked against testdata/golden.json (netlist sha256, area and
// delay of every fixed (design, library, mode)); freshly generated designs
// get a BDD equivalence check and /synth results must carry a valid
// hazard-freedom certificate. Any mismatch counts as a failed operation.
// See README.md for the workloads, the metrics and how to read layers.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workload is one named set of inputs and the function that runs it.
type workload struct {
	name string
	run  func(e *env) (*report, error)
}

// workloads lists the benchmark's workloads; the reason each exists is on
// its run function and in README.md.
var workloads = []workload{
	{"map-actel", runMapActel},
	{"map-lsi9k-x10", runMapLSI9KX10},
	{"serve-mixed", runServeMixed},
	{"fleet-batch", runFleetBatch},
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0, in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// env is what a workload's run function gets: its inputs and where to put
// files.
type env struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	asyncmapBin string // path of the asyncmap binary
	self        string // path of this binary, for set-up probes
	work        string // scratch directory for generated input files
	traceDir    string // where the traced run writes spans.jsonl and layers.json
	golden      *goldens
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's operations, failures and metric values. It is
// safe for concurrent use by the serve-mixed client goroutines.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// op records one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	if err != nil {
		r.fail(err)
	}
}

// fail records a failure; on its own, one that is not tied to an
// operation, such as a deferred equivalence check or a truncated trace.
func (r *report) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, err.Error())
	}
}

func main() {
	var (
		name        = flag.String("workload", "", "workload to run: map-actel, map-lsi9k-x10, serve-mixed or fleet-batch")
		seed        = flag.Uint64("seed", 1, "workload seed: drives input order and generated inputs")
		seconds     = flag.Float64("seconds", 20, "measurement time of a --trace 0 run")
		trace       = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		asyncmap    = flag.String("asyncmap", ".bench_build/bin/asyncmap", "asyncmap binary to exec")
		out         = flag.String("out", ".bench_build", "directory for scratch input files and trace output")
		writeGolden = flag.String("write-golden", "", "verify every fixed (design, library, mode) mapping and write the goldens to this file, then exit")
		serveChild  = flag.String("serve-child", "", "internal: boot the serve or fleet entry point, print \"ready URL\" and serve until standard input closes")
		serveSpans  = flag.String("serve-spans", "", "internal: with --serve-child serve, trace the server and write its spans to this file")
		reportPath  = flag.String("report", "", "run every workload in its own child process, --runs seeds in each of two interleaved sets plus one traced run, and write the baseline report to this file")
		runs        = flag.Int("runs", 3, "seeds per set for --report")
	)
	flag.Parse()
	if *serveChild != "" {
		if err := runChild(*serveChild, *serveSpans); err != nil {
			fatal(err)
		}
		return
	}
	if *reportPath != "" {
		abs, err := filepath.Abs(*asyncmap)
		if err != nil {
			fatal(err)
		}
		if err := writeReport(*reportPath, *runs, *seconds, abs, *out); err != nil {
			fatal(err)
		}
		return
	}
	if *writeGolden != "" {
		if err := writeGoldens(*writeGolden); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatal(fmt.Errorf("unknown --workload %q", *name))
	}
	res, err := run(wl, *seed, *seconds, *trace == 1, *asyncmap, *out)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func run(wl *workload, seed uint64, seconds float64, trace bool, asyncmap, out string) (*result, error) {
	gs, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if asyncmap, err = filepath.Abs(asyncmap); err != nil {
		return nil, err
	}
	if _, err := os.Stat(asyncmap); err != nil {
		return nil, fmt.Errorf("asyncmap binary: %w", err)
	}
	work, err := os.MkdirTemp(mkdir(out), "work-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{
		workload: wl.name, seed: seed, seconds: seconds, trace: trace,
		asyncmapBin: asyncmap, self: self, work: work,
		traceDir: filepath.Join(out, "trace", wl.name), golden: gs,
	}
	logf("%s seed=%d trace=%t GOMAXPROCS=%d NumCPU=%d %s", wl.name, seed, trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	rep, err := wl.run(e)
	if err != nil {
		return nil, err
	}
	want := endToEnd
	if trace {
		want = layerMetrics
	}
	res := &result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v, ok := rep.values[m.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", wl.name, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	res.Correct = rep.failed == 0 && rep.attempted > 0
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "gfbench: FAILED:", n)
	}
	return res, nil
}

func mkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gfbench:", err)
	os.Exit(1)
}

// logf writes a progress line to standard error; standard output carries
// only the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gfbench: "+format+"\n", args...)
}

// latencyMetrics stores the median and the tail of per-operation
// latencies (ms). The tail is the highest percentile with at least ten
// samples beyond it, kept between p50 and p90: p(1-10/n), so p90 from 100
// samples up and the median below 20. It is interpolated between samples
// so that it does not jump as n changes from run to run. The log line
// records its percentile and n.
func (r *report) latencyMetrics(ms []float64) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return
	}
	p := max(0.5, min(0.9, 1-10/float64(n)))
	h := p * float64(n-1)
	i := int(h)
	tail := s[i]
	if i+1 < n {
		tail += (h - float64(i)) * (s[i+1] - s[i])
	}
	r.values["latency_p50_ms"] = median(s)
	r.values["latency_tail_ms"] = tail
	logf("latency over n=%d operations: p50 %.3f ms, tail p%.1f %.3f ms", n, median(s), 100*p, tail)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports kB
}
