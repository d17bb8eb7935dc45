package bench

// Machine-readable benchmark reports: every JSON report is stamped with
// an environment fingerprint (go version, platform, CPU count, library,
// git revision) so bench trajectory files collected on different
// machines stay comparable, and each design row carries the observability
// histograms (hazard-analysis latency, cuts per node, cluster widths)
// alongside the deterministic mapper statistics.

import (
	"os/exec"
	"runtime"
	"strings"
	"time"

	"gfmap/internal/core"
	"gfmap/internal/library"
	"gfmap/internal/obs"
)

// Fingerprint identifies the environment a report was produced in.
// Reports from different machines are only comparable once their
// fingerprints have been compared first.
type Fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Library is the cell library every design in the report was mapped
	// onto.
	Library string `json:"library"`
	// GitDescribe is `git describe --always --dirty` of the working tree,
	// empty when git (or a repository) is unavailable.
	GitDescribe string `json:"git_describe,omitempty"`
}

// NewFingerprint collects the environment fingerprint for a report over
// the named library.
func NewFingerprint(libName string) Fingerprint {
	return Fingerprint{
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Library:     libName,
		GitDescribe: gitDescribe(),
	}
}

func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// DesignReport is one benchmark design mapped with full observability:
// the deterministic mapping summary plus per-design histogram summaries
// snapshotted from the metrics registry.
type DesignReport struct {
	Design string  `json:"design"`
	Slices int     `json:"slices"`
	Gates  int     `json:"gates"`
	Area   float64 `json:"area"`
	Delay  float64 `json:"delay"`

	// WallMS is the best-of-Runs wall time of one full mapping, in
	// milliseconds. Best-of (not mean) because scheduling noise only ever
	// adds time; the minimum is the most reproducible point estimate.
	WallMS float64 `json:"wall_ms"`
	// AllocsPerOp / BytesPerOp are the heap allocation count and bytes of
	// the fastest run, measured with runtime.ReadMemStats deltas around
	// the mapping call. Counts are process-wide, so runs execute serially.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`
	// HazCacheHitRate is (memo + cache hits) / all analyses for this
	// design's run; StoreHitRate is store hits / cone lookups (0 without
	// a store). Both come from the run's own core.Stats.
	HazCacheHitRate float64 `json:"hazcache_hit_rate"`
	StoreHitRate    float64 `json:"store_hit_rate"`

	Stats core.Stats `json:"stats"`
	// Histograms is the design's registry snapshot of histograms: the
	// core.Metric* distributions (hazard-analysis latency in seconds,
	// per-cone covering latency, cuts per node, cluster leaf widths).
	Histograms map[string]obs.HistSnapshot `json:"histograms"`
	// HazardP50 / HazardP99 are bucket-quantile estimates of the
	// hazard-analysis latency in seconds, duplicated out of Histograms
	// for easy plotting.
	HazardP50 float64 `json:"hazard_p50_seconds"`
	HazardP99 float64 `json:"hazard_p99_seconds"`
}

// Report is the top-level JSON benchmark report — one point on the
// checked-in perf trajectory (benchdata/BENCH_*.json).
type Report struct {
	Fingerprint Fingerprint `json:"fingerprint"`
	// CreatedAt orders trajectory files (RFC3339, UTC).
	CreatedAt string `json:"created_at"`
	Mode      string `json:"mode"`
	// Runs is how many times each design was mapped; wall time and
	// allocations report the fastest run.
	Runs int `json:"runs"`
	// Synthetic records whether the diffcheck-generated corpus rode along
	// with the paper suite. Reports with different corpora are only
	// compared design-by-design on their intersection.
	Synthetic bool           `json:"synthetic"`
	Designs   []DesignReport `json:"designs"`
}

// ReportOptions tunes JSONReport. The zero value maps the full corpus
// (paper suite plus synthetic designs) once per design.
type ReportOptions struct {
	// Runs maps each design this many times, keeping the fastest wall
	// time; 0 means 1.
	Runs int
	// NoSynthetic restricts the corpus to the paper suite.
	NoSynthetic bool
}

// JSONReport maps the benchmark corpus onto the named library in
// asynchronous mode and assembles the fingerprinted report: the paper's
// Table 5 suite plus (by default) the synthetic scaling corpus, each
// design with wall time, allocation counts, cache hit rates and the
// observability histograms.
func JSONReport(libName string, opts ReportOptions) (*Report, error) {
	lib, err := library.Get(libName)
	if err != nil {
		return nil, err
	}
	ds, err := Designs()
	if err != nil {
		return nil, err
	}
	if !opts.NoSynthetic {
		synth, err := SynthDesigns()
		if err != nil {
			return nil, err
		}
		ds = append(append([]*Design(nil), ds...), synth...)
	}
	runs := opts.Runs
	if runs <= 0 {
		runs = 1
	}
	rep := &Report{
		Fingerprint: NewFingerprint(lib.Name),
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		Mode:        core.Async.String(),
		Runs:        runs,
		Synthetic:   !opts.NoSynthetic,
	}
	for _, d := range ds {
		dr, err := benchDesign(d, lib, runs)
		if err != nil {
			return nil, err
		}
		rep.Designs = append(rep.Designs, dr)
	}
	return rep, nil
}

// benchDesign maps one design runs times and keeps the fastest run's
// wall time and allocation deltas alongside the (run-invariant) QoR and
// metrics snapshot of the final run.
func benchDesign(d *Design, lib *library.Library, runs int) (DesignReport, error) {
	var (
		bestWall   time.Duration
		bestAllocs uint64
		bestBytes  uint64
		res        *core.Result
		reg        *obs.Registry
	)
	for r := 0; r < runs; r++ {
		reg = obs.NewRegistry()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rr, err := core.AsyncTmap(d.Net, lib, core.Options{Metrics: reg})
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return DesignReport{}, err
		}
		res = rr
		if r == 0 || wall < bestWall {
			bestWall = wall
			bestAllocs = after.Mallocs - before.Mallocs
			bestBytes = after.TotalAlloc - before.TotalAlloc
		}
	}
	hists := reg.Snapshot().Histograms
	haz := hists[core.MetricHazardSeconds]
	st := res.Stats
	storeTotal := float64(st.StoreHits + st.StoreMisses)
	dr := DesignReport{
		Design:          d.Name,
		Slices:          d.Slices,
		Gates:           res.Netlist.GateCount(),
		Area:            res.Area,
		Delay:           res.Delay,
		WallMS:          float64(bestWall) / float64(time.Millisecond),
		AllocsPerOp:     bestAllocs,
		BytesPerOp:      bestBytes,
		HazCacheHitRate: st.HazCacheHitRate(),
		Stats:           st,
		Histograms:      hists,
		HazardP50:       haz.Quantile(0.50),
		HazardP99:       haz.Quantile(0.99),
	}
	if storeTotal > 0 {
		dr.StoreHitRate = float64(st.StoreHits) / storeTotal
	}
	return dr, nil
}
