package main

// The baseline report: every workload run as its own child process
// (`gfbench --workload NAME --seed N`), so the process-wide hazard cache,
// the library cache and peak RSS stay separate per workload.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"

	"gfmap/internal/bench"
)

// baselineReport is what --report writes: two interleaved sets of untraced
// runs of every workload, one traced run each, and the spreads.
type baselineReport struct {
	Fingerprint bench.Fingerprint          `json:"fingerprint"`
	CreatedAt   string                     `json:"created_at"`
	Seconds     float64                    `json:"seconds"`
	Runs        int                        `json:"runs_per_set"`
	Workloads   map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	// Sets holds each set's result lines, seeds 1..Runs, run A1 B1 A2 B2...
	Sets [2][]result `json:"sets"`
	// Metrics summarises each end-to-end metric over the two sets.
	Metrics map[string]metricSummary `json:"metrics"`
	Traced  result                   `json:"traced"`
}

type metricSummary struct {
	Unit string `json:"unit"`
	// Median of each set.
	Median [2]float64 `json:"median"`
	// Spread of each set: interquartile range over median, the quartiles
	// as Python's statistics.quantiles(values, n=4) gives them.
	Spread [2]float64 `json:"spread"`
	// SetDelta is the second set's median relative to the first's, minus 1.
	SetDelta float64 `json:"set_delta"`
}

// writeReport runs every workload runs times in each of two interleaved
// sets, then once traced, and writes the baseline report to path.
func writeReport(path string, runs int, seconds float64, asyncmap, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := baselineReport{
		Fingerprint: bench.NewFingerprint("Actel, LSI9K, CMOS3, GDT"),
		CreatedAt:   time.Now().UTC().Format(time.RFC3339),
		Seconds:     seconds,
		Runs:        runs,
		Workloads:   map[string]*workloadReport{},
	}
	child := func(w string, seed int, trace string) (result, error) {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", trace,
			"--asyncmap", asyncmap, "--out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s seed %d: %w", w, seed, err)
		}
		var res result
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return result{}, fmt.Errorf("%s seed %d: %w", w, seed, err)
		}
		return res, nil
	}
	for _, w := range workloads {
		rep.Workloads[w.name] = &workloadReport{Metrics: map[string]metricSummary{}}
	}
	for seed := 1; seed <= runs; seed++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				res, err := child(w.name, seed, "0")
				if err != nil {
					return err
				}
				wr := rep.Workloads[w.name]
				wr.Sets[set] = append(wr.Sets[set], res)
			}
		}
	}
	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		if wr.Traced, err = child(w.name, 1, "1"); err != nil {
			return err
		}
		for _, m := range endToEnd {
			s := metricSummary{Unit: m.unit}
			for set := 0; set < 2; set++ {
				var vs []float64
				for _, res := range wr.Sets[set] {
					vs = append(vs, res.Metrics[m.name].Value)
				}
				s.Median[set] = median(vs)
				s.Spread[set] = quartileSpread(vs)
			}
			s.SetDelta = ratio(s.Median[1], s.Median[0]) - 1
			wr.Metrics[m.name] = s
			logf("%-14s %-17s median %10.4f %10.4f  spread %.3f %.3f", w.name, m.name, s.Median[0], s.Median[1], s.Spread[0], s.Spread[1])
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quartileSpread is (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive"
// method, ported exactly).
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return 0
	}
	m := ld + 1
	q := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}
