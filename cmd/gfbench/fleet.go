package main

// fleet-batch: server.StartInProcessFleet — a coordinator fronting two
// plain asyncmapd workers, plus the harness's single-process twin — driven
// through POST /map/batch, closed loop, one client.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"gfmap/internal/hazcache"
	"gfmap/internal/obs"
	"gfmap/internal/server"
)

const (
	fleetWorkers = 2
	// fleetTraceRounds is the traced run's fixed length.
	fleetTraceRounds = 5
)

// runFleetBatch is the fourth entry point, and the decision data for
// keeping or removing fleet dispatch: each round posts the 15-design corpus
// on Actel, dispatched design by design, then a single-design scsi x4
// batch, which the coordinator shards cone by cone across the workers. The
// operation is one round. The traced run also posts every batch to the
// local twin, for the fleet's speedup over one process.
func runFleetBatch(e *env) (*report, error) {
	corpus, err := paperCorpus()
	if err != nil {
		return nil, err
	}
	scsi4, err := scsiTimes(4)
	if err != nil {
		return nil, err
	}
	r := newReport()
	if e.trace {
		return r, traceFleet(e, r, corpus, scsi4)
	}
	if r.values["setup_s"], err = setupProbe(e, "fleet", 5); err != nil {
		return nil, err
	}
	f, err := server.StartInProcessFleet(fleetWorkers, server.Config{})
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	rng := rand.New(rand.NewSource(int64(e.seed)))
	var lat []float64
	designs := 0
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		t0 := time.Now()
		postBatch(c, f.CoordinatorURL, shuffled(rng, corpus), e.golden, r)
		postBatch(c, f.CoordinatorURL, []design{scsi4}, e.golden, r)
		designs += len(corpus) + 1
		lat = append(lat, ms(time.Since(t0)))
	}
	r.values["throughput_per_s"] = float64(designs) / time.Since(start).Seconds()
	r.latencyMetrics(lat)
	if r.values["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	return r, nil
}

func shuffled(rng *rand.Rand, ds []design) []design {
	out := append([]design(nil), ds...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// postBatch maps ds on Actel in async mode through one /map/batch call and
// checks every result against its golden; each design is one operation.
// It returns the call's latency (ms) and the results that came back.
func postBatch(c *http.Client, base string, ds []design, g *goldens, r *report) (float64, []*server.MapResponse) {
	start := time.Now()
	br, err := batch(c, base, ds)
	d := ms(time.Since(start))
	var ok []*server.MapResponse
	for i, des := range ds {
		switch {
		case err != nil:
			r.op(err)
		case br.Results[i].Error != "":
			r.op(fmt.Errorf("batch %s: %s", des.name, br.Results[i].Error))
		default:
			res := br.Results[i].MapResponse
			r.op(g.check(goldenKey(des.name, "Actel", "async"), res.Netlist, res.Area, res.Delay))
			ok = append(ok, res)
		}
	}
	return d, ok
}

func batch(c *http.Client, base string, ds []design) (*server.BatchResponse, error) {
	req := server.BatchRequest{Defaults: server.MapRequest{Format: "eqn", Library: "Actel", Mode: "async"}}
	for _, d := range ds {
		req.Designs = append(req.Designs, server.MapRequest{Name: d.name, Design: d.eqn})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(base+"/map/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("/map/batch: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var br server.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, err
	}
	if len(br.Results) != len(ds) {
		return nil, fmt.Errorf("/map/batch: %d results for %d designs", len(br.Results), len(ds))
	}
	return &br, nil
}

// traceFleet runs fleetTraceRounds rounds on an untraced fleet, posting
// each batch to the coordinator and then to the local twin, and the same
// rounds on a traced fleet (a fresh one per round keeps every trace
// small). The untraced and the traced fleets each get a private hazard
// cache, so neither warms the other's. All servers of one fleet share its
// tracer, so worker spans from concurrent shards interleave on the same
// track numbers; self times of nested spans are approximate for this
// workload.
func traceFleet(e *env, r *report, corpus []design, scsi4 design) error {
	t, err := newTraced(e, fleetTraceRounds, "decompose", "partition", "cuts", "match", "hazard", "emit")
	if err != nil {
		return err
	}
	f, err := server.StartInProcessFleet(fleetWorkers, server.Config{HazardCache: hazcache.New(0)})
	if err != nil {
		return err
	}
	defer f.Close()
	c := newClient()
	defer c.CloseIdleConnections()
	rng := rand.New(rand.NewSource(int64(e.seed)))
	tracedCache := hazcache.New(0)
	var fleetMS, twinMS, coneMS, coneTwinMS float64
	post := func(base string, ds []design) (float64, []*server.MapResponse) {
		return postBatch(c, base, ds, e.golden, r)
	}
	idle := time.Now()
	for round := 0; round < fleetTraceRounds; round++ {
		ds := shuffled(rng, corpus)
		t.lagMS = append(t.lagMS, ms(time.Since(idle)))
		a, res := post(f.CoordinatorURL, ds)
		b, cres := post(f.CoordinatorURL, []design{scsi4})
		fleetMS += a + b
		coneMS += b
		for _, mr := range append(res, cres...) {
			t.c.add(mr.Stats)
		}
		a, _ = post(f.LocalURL, ds)
		b, _ = post(f.LocalURL, []design{scsi4})
		twinMS += a + b
		coneTwinMS += b
		for _, d := range append(ds, scsi4) {
			pt, err := parseMS(d)
			if err != nil {
				return err
			}
			t.parseMS += pt
		}

		tr := obs.NewTracer(0)
		tf, err := server.StartInProcessFleet(fleetWorkers, server.Config{HazardCache: tracedCache, Tracer: tr})
		if err != nil {
			return err
		}
		a, _ = post(tf.CoordinatorURL, ds)
		b, _ = post(tf.CoordinatorURL, []design{scsi4})
		tf.Close()
		t.tracedMS += a + b
		if err := t.addTracer(tr); err != nil {
			return err
		}
		idle = time.Now()
	}
	t.untracedMS = fleetMS
	// The fleet's entry overhead is what distribution costs over one
	// process: negative when the fleet is faster than its twin.
	t.overheadMS = fleetMS - twinMS
	r.values["fleet.speedup"] = ratio(twinMS, fleetMS)
	r.values["fleet.cone_speedup"] = ratio(coneTwinMS, coneMS)
	counts := f.Coordinator.Registry().Snapshot().Counters
	r.values["fleet.hedges"] = float64(counts["fleet_hedges_total"]) / fleetTraceRounds
	r.values["fleet.retries"] = float64(counts["fleet_retries_total"]) / fleetTraceRounds
	r.values["fleet.local_fallbacks"] = float64(counts["fleet_local_fallbacks_total"]) / fleetTraceRounds
	r.values["server.rejected"] = float64(counts[server.MetricRejected]) / fleetTraceRounds
	if r.values["server.queue_wait_share"], err = queueWaitShare(c, f.CoordinatorURL); err != nil {
		return err
	}
	if t.annotateMS, err = annotateMS("Actel"); err != nil {
		return err
	}
	return t.finish(r)
}
