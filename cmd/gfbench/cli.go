package main

// The CLI workloads: one real asyncmap exec per design, closed loop, one
// caller. Latency is per round, one exec of every design in every mode
// (what a user compiling the corpus waits for), so every sample is the
// same work whatever the seed; exec times include process start and
// library annotation, as a CLI user pays them.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"gfmap/internal/core"
	"gfmap/internal/eqn"
	"gfmap/internal/library"
)

// cliTraceRounds is the traced run's fixed length: three passes over the
// corpus (in each mode).
const cliTraceRounds = 3

// runMapActel is the paper's hazard path exactly as CLI users pay for it:
// the 15-design corpus on Actel, whose hazardous cells make the async
// filter do about 21k hazard checks per pass. Async and sync passes
// alternate in a seeded order; every exec starts with a cold hazard cache,
// and each pass pair is the paper's Table 4 async/sync comparison.
func runMapActel(e *env) (*report, error) {
	ds, err := paperCorpus()
	if err != nil {
		return nil, err
	}
	return runCLI(e, "Actel", []string{"async", "sync"}, ds)
}

// runMapLSI9KX10 is the front-end workload: scsi x4 (264 slices), scsi x10
// (660 slices, 4,620 nodes) and a fixed 1000-node random design on LSI9K
// in async mode. Decompose grows quadratically with design size (about
// 1.1 s of a 1.6 s map at x10) while LSI9K leaves the hazard filter nearly
// idle (0 checks on scsi), so the workload exercises a front-end fix and
// bypasses hazard and match changes.
func runMapLSI9KX10(e *env) (*report, error) {
	ds, err := lsiCorpus()
	if err != nil {
		return nil, err
	}
	return runCLI(e, "LSI9K", []string{"async"}, ds)
}

// cliRun is one asyncmap exec and what it printed.
type cliRun struct {
	wall     time.Duration
	maxRSSKB int64
	netlist  string
	out      struct {
		Area, Delay float64
		Stats       core.Stats
	}
	err error
}

func (c *cliRun) check(g *goldens, key string) error {
	if c.err != nil {
		return c.err
	}
	return g.check(key, c.netlist, c.out.Area, c.out.Delay)
}

// pipeline is the mapper's own time inside the exec, from its phase timers.
func (c *cliRun) pipeline() time.Duration {
	st := c.out.Stats
	return st.DecomposeTime + st.PartitionTime + st.CoverTime + st.EmitTime
}

// asyncmap execs the CLI on one design file; events, when set, names the
// JSONL span file to write (asyncmap -events).
func (e *env) asyncmap(lib, mode, file, events string) *cliRun {
	args := []string{"-lib", lib, "-mode", mode, "-stats", "json"}
	if events != "" {
		args = append(args, "-events", events)
	}
	args = append(args, file)
	cmd := exec.Command(e.asyncmapBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	r := &cliRun{wall: time.Since(start)}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.maxRSSKB = ru.Maxrss
		}
	}
	name := strings.TrimSuffix(filepath.Base(file), ".eqn")
	if err != nil {
		msg, _, _ := strings.Cut(stderr.String(), "\n")
		r.err = fmt.Errorf("asyncmap %s -lib %s -mode %s: %v: %s", name, lib, mode, err, msg)
		return r
	}
	// -stats json goes to stderr while the netlist is on stdout.
	if err := json.Unmarshal(stderr.Bytes(), &r.out); err != nil {
		r.err = fmt.Errorf("asyncmap %s -lib %s -mode %s: stats: %w", name, lib, mode, err)
		return r
	}
	r.netlist = stdout.String()
	return r
}

func runCLI(e *env, lib string, modes []string, ds []design) (*report, error) {
	files := map[string]string{}
	for _, d := range ds {
		files[d.name] = filepath.Join(e.work, d.name+".eqn")
		if err := os.WriteFile(files[d.name], []byte(d.eqn), 0o644); err != nil {
			return nil, err
		}
	}
	r := newReport()
	if e.trace {
		return r, traceCLI(e, r, lib, modes, ds, files)
	}
	// Set-up is what a CLI user pays before any mapping: process start
	// plus building and annotating the library, timed on a one-gate design.
	tiny := filepath.Join(e.work, "tiny.eqn")
	if err := os.WriteFile(tiny, []byte("INPUT(a, b)\nOUTPUT(y)\ny = a*b;\n"), 0o644); err != nil {
		return nil, err
	}
	var setup []float64
	for i := 0; i < 25; i++ {
		c := e.asyncmap(lib, "async", tiny, "")
		if c.err != nil {
			return nil, fmt.Errorf("set-up: %w", c.err)
		}
		setup = append(setup, c.wall.Seconds())
	}
	r.values["setup_s"] = median(setup)

	rng := rand.New(rand.NewSource(int64(e.seed)))
	var lat []float64
	var rssKB int64
	execs := 0
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		t0 := time.Now()
		for _, mode := range modes {
			for _, i := range rng.Perm(len(ds)) {
				c := e.asyncmap(lib, mode, files[ds[i].name], "")
				r.op(c.check(e.golden, goldenKey(ds[i].name, lib, mode)))
				rssKB = max(rssKB, c.maxRSSKB)
				execs++
			}
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	r.values["throughput_per_s"] = float64(execs) / time.Since(start).Seconds()
	r.latencyMetrics(lat)
	r.values["peak_rss_mb"] = float64(rssKB) / 1024
	return r, nil
}

// traceCLI maps every design of each round twice, untraced then with
// asyncmap -events, and aggregates the spans.
func traceCLI(e *env, r *report, lib string, modes []string, ds []design, files map[string]string) error {
	t, err := newTraced(e, cliTraceRounds, "decompose", "partition", "cuts", "match", "hazard", "emit")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(e.seed)))
	passMS := map[string][]float64{}
	area := map[string]float64{}
	decompose := map[string][]float64{}
	events := filepath.Join(e.work, "events.jsonl")
	idle := time.Now()
	for round := 0; round < cliTraceRounds; round++ {
		for _, mode := range modes {
			pass := 0.0
			for _, i := range rng.Perm(len(ds)) {
				d := ds[i]
				key := goldenKey(d.name, lib, mode)
				t.lagMS = append(t.lagMS, ms(time.Since(idle)))
				u := e.asyncmap(lib, mode, files[d.name], "")
				r.op(u.check(e.golden, key))
				tr := e.asyncmap(lib, mode, files[d.name], events)
				r.op(tr.check(e.golden, key))
				if u.err != nil || tr.err != nil {
					idle = time.Now()
					continue
				}
				data, err := os.ReadFile(events)
				if err != nil {
					return err
				}
				if err := t.agg.add(data, 0); err != nil {
					return err
				}
				pass += ms(u.wall)
				t.untracedMS += ms(u.wall)
				t.tracedMS += ms(tr.wall)
				t.overheadMS += ms(u.wall - u.pipeline())
				t.c.add(u.out.Stats)
				pt, err := parseMS(d)
				if err != nil {
					return err
				}
				t.parseMS += pt
				if round == 0 {
					area[mode] += u.out.Area
				}
				decompose[d.name] = append(decompose[d.name], ms(u.out.Stats.DecomposeTime))
				idle = time.Now()
			}
			passMS[mode] = append(passMS[mode], pass)
		}
	}
	if t.annotateMS, err = annotateMS(lib); err != nil {
		return err
	}
	if len(modes) == 2 {
		r.values["hazard.async_overhead"] = ratio(median(passMS["async"]), median(passMS["sync"]))
		r.values["hazard.area_overhead"] = ratio(area["async"], area["sync"])
	}
	// Linear decompose would scale x10/x4 by 2.5, quadratic by 6.25.
	r.values["network.decompose_scaling"] = ratio(median(decompose["scsi-x10"]), median(decompose["scsi-x4"]))
	return t.finish(r)
}

// parseMS times the in-process parse of one design's eqn text: the eqn
// layer's share of a request, measured beside the program rather than
// inside it.
func parseMS(d design) (float64, error) {
	start := time.Now()
	_, err := eqn.ParseString(d.eqn, d.name)
	return ms(time.Since(start)), err
}

// annotateMS is the median over five runs of building and
// hazard-annotating the named libraries from scratch.
func annotateMS(libs ...string) (float64, error) {
	var runs []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		for _, name := range libs {
			lib, err := library.Build(name)
			if err != nil {
				return 0, err
			}
			if err := lib.Annotate(); err != nil {
				return 0, err
			}
		}
		runs = append(runs, ms(time.Since(start)))
	}
	return median(runs), nil
}
