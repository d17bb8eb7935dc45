package main

// serve-mixed: asyncmapd as server.New builds it with the deployed
// defaults (all four libraries, MaxConcurrent 4, queue 8, shared hazard
// cache, no store) on a loopback listener, driven over HTTP with at most
// nproc client connections. The server runs in a child process of its own
// (gfbench --serve-child): in the load generator's process, the mapper's
// busy goroutines would delay the generator and the clients by up to a
// scheduler time slice, and that delay, not the server, would set the
// latency numbers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gfmap/internal/core"
	"gfmap/internal/library"
	"gfmap/internal/obs"
	"gfmap/internal/server"
)

const (
	// serveNominalRate is the open-loop arrival rate (requests/s) at which
	// latency is measured: about 40 % of the closed-loop capacity measured
	// when the baseline was recorded (about 150/s on 2 CPUs).
	serveNominalRate = 60.0
	// serveBlock is the request mix's unit: 30 /map (the 15 corpus designs
	// and 15 fresh designs) and 10 /synth (the 8 slice specs and 2
	// generated machines), shuffled. Whole blocks keep the mix, and so the
	// latency distribution, the same from seed to seed.
	serveBlock = 40
	// serveTraceBlocks is the traced run's fixed length (200 requests).
	serveTraceBlocks = 5
)

// runServeMixed uses the hazard layer read-mostly, where map-actel uses it
// cold: 75 % POST /map in eqn format, half corpus designs that repeat and
// hit the warm shared cache and half fresh seeded 30-58-node designs that
// never repeat, each on one of the 4 libraries and async 80 % of the time;
// 25 % POST /synth on Actel. It also covers admission, JSON, hfmin and
// dsim. Latency is measured open loop at serveNominalRate, timed from each
// request's due time, for two thirds of the run; throughput closed loop
// with nproc clients for the rest.
func runServeMixed(e *env) (*report, error) {
	corpus, err := paperCorpus()
	if err != nil {
		return nil, err
	}
	r := newReport()
	if e.trace {
		return r, traceServe(e, r, corpus)
	}
	if r.values["setup_s"], err = setupProbe(e, "serve", 5); err != nil {
		return nil, err
	}
	openFor := time.Duration(2 * e.seconds / 3 * float64(time.Second))
	closedFor := time.Duration(e.seconds / 3 * float64(time.Second))
	// Enough blocks for the open loop plus a closed loop at up to 200/s;
	// generating inputs is kept out of the timed phases.
	n := int(serveNominalRate*openFor.Seconds()) + int(200*closedFor.Seconds())
	reqs := serveRequests(e.seed, n/serveBlock+1, corpus)

	srv, err := startChild(e, "serve", "")
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	var fresh freshChecks

	open := int(serveNominalRate * openFor.Seconds())
	lat, lag := openLoop(serveNominalRate, reqs[:open], func(q *serveReq) {
		r.op(send(c, srv.url, q).check(e.golden, q, &fresh))
	})
	r.latencyMetrics(lat)
	logf("open loop at %g/s: generator lag p99 %.3f ms", serveNominalRate, quantile(lag, 0.99))

	// Closed loop: nproc clients, each sending its next request when the
	// previous one completes.
	var (
		mu   sync.Mutex
		next = open
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(closedFor)
	var last time.Time
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				q := &reqs[next%len(reqs)]
				next++
				mu.Unlock()
				resp := send(c, srv.url, q)
				r.op(resp.check(e.golden, q, &fresh))
				mu.Lock()
				last = time.Now()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if next > len(reqs) {
		logf("closed loop wrapped around the %d generated requests", len(reqs))
	}
	r.values["throughput_per_s"] = float64(next-open) / last.Sub(start).Seconds()
	if r.values["peak_rss_mb"], _, err = srv.stop(); err != nil {
		return nil, err
	}
	fresh.run(r)
	return r, nil
}

// serveReq is one prepared request.
type serveReq struct {
	path  string // "/map" or "/synth"
	body  []byte
	key   string  // golden key of a fixed input, "" for generated ones
	d     *design // the design of a /map request
	lib   string
	fresh bool // a generated design, BDD-checked after the run
}

// serveRequests builds the seeded request stream, block by block. Which
// library and mode each corpus design gets rotates from block to block the
// same way for every seed, so any run sees the same mix; the seed picks
// the order within each block and the generated designs and machines.
func serveRequests(seed uint64, blocks int, corpus []design) []serveReq {
	rng := rand.New(rand.NewSource(int64(seed)))
	libs := library.BuiltinNames
	specs := sliceSpecs()
	mapReq := func(d design, lib, mode string, fresh bool) serveReq {
		body, _ := json.Marshal(server.MapRequest{Name: d.name, Format: "eqn", Design: d.eqn, Library: lib, Mode: mode})
		q := serveReq{path: "/map", body: body, d: &d, lib: lib, fresh: fresh}
		if !fresh {
			q.key = goldenKey(d.name, lib, mode)
		}
		return q
	}
	synthReq := func(s spec) serveReq {
		body, _ := json.Marshal(server.SynthRequest{Spec: s.text, Library: "Actel"})
		key := ""
		if s.name != "" {
			key = goldenKey(s.name, "Actel", "async")
		}
		return serveReq{path: "/synth", body: body, key: key}
	}
	// Every fifth design (by a rotating index) maps in sync mode: 80 % async.
	mode := func(i int) string {
		if i%5 == 0 {
			return "sync"
		}
		return "async"
	}
	var out []serveReq
	for b := 0; b < blocks; b++ {
		var block []serveReq
		for i, d := range corpus {
			lib, m := libs[(i+b)%len(libs)], mode(i+3*b)
			block = append(block, mapReq(d, lib, m, false))
		}
		for j := 0; j < 15; j++ {
			d := freshDesign(seed*1_000_003+uint64(b*16+j), j)
			block = append(block, mapReq(d, libs[(j+b+1)%len(libs)], mode(j+2*b+1), true))
		}
		for _, s := range specs {
			block = append(block, synthReq(s))
		}
		for k := 0; k < 2; k++ {
			block = append(block, synthReq(freshSpec(seed*1_000_003+500_000+uint64(b*2+k)*1000)))
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out
}

// serveResp is one response, decoded.
type serveResp struct {
	err       error
	netlist   string
	area      float64
	delay     float64
	elapsedMS float64 // the server's own pipeline time
	synthMS   float64 // /synth: hfmin phase
	simMS     float64 // /synth: dsim phase
	trans     int     // /synth: simulated transitions
	stats     core.Stats
}

func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
}

func send(c *http.Client, base string, q *serveReq) *serveResp {
	resp, err := c.Post(base+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return &serveResp{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return &serveResp{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return &serveResp{err: fmt.Errorf("POST %s: status %d: %s", q.path, resp.StatusCode, bytes.TrimSpace(body))}
	}
	if q.path == "/synth" {
		var sr server.SynthResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			return &serveResp{err: err}
		}
		out := &serveResp{netlist: sr.Netlist, area: sr.Area, delay: sr.Delay, elapsedMS: sr.ElapsedMS,
			synthMS: sr.SynthesizeMS, simMS: sr.SimulateMS, stats: sr.Stats}
		switch {
		case sr.Evidence == nil:
			out.err = fmt.Errorf("/synth %s: no evidence", sr.Name)
		case !sr.Evidence.HazardFree || !sr.Evidence.Settled:
			out.err = fmt.Errorf("/synth %s: hazard-freedom certificate refuted", sr.Name)
		default:
			out.trans = len(sr.Evidence.Transitions)
		}
		return out
	}
	var mr server.MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		return &serveResp{err: err}
	}
	return &serveResp{netlist: mr.Netlist, area: mr.Area, delay: mr.Delay, elapsedMS: mr.ElapsedMS, stats: mr.Stats}
}

// check compares a response with its golden, or queues a generated
// design's netlist for the BDD check after the run.
func (s *serveResp) check(g *goldens, q *serveReq, fresh *freshChecks) error {
	switch {
	case s.err != nil:
		return s.err
	case q.key != "":
		return g.check(q.key, s.netlist, s.area, s.delay)
	case q.fresh:
		fresh.add(*q.d, q.lib, s.netlist)
	}
	return nil
}

// freshChecks holds served netlists of generated designs until the timed
// phases are over; each is then BDD-checked against its input.
type freshChecks struct {
	mu    sync.Mutex
	items []freshItem
}

type freshItem struct {
	d       design
	lib     string
	netlist string
}

func (f *freshChecks) add(d design, lib, netlist string) {
	f.mu.Lock()
	f.items = append(f.items, freshItem{d, lib, netlist})
	f.mu.Unlock()
}

func (f *freshChecks) run(r *report) {
	for _, it := range f.items {
		if err := checkFresh(it.d, it.lib, it.netlist); err != nil {
			r.fail(err)
		}
	}
	logf("BDD-checked %d served netlists of generated designs", len(f.items))
}

// openLoop sends reqs at a fixed rate, each at its due time whatever the
// state of earlier requests, and returns each request's latency from its
// due time and the generator's lag (how late each was actually sent), in
// ms.
func openLoop(rate float64, reqs []serveReq, do func(*serveReq)) (lat, lag []float64) {
	lat = make([]float64, len(reqs))
	lag = make([]float64, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range reqs {
		due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			lag[i] = ms(time.Since(due))
			do(&reqs[i])
			lat[i] = ms(time.Since(due))
		}(i, due)
	}
	wg.Wait()
	return lat, lag
}

// traceServe runs serveTraceBlocks blocks one request at a time, each
// request first on an untraced server and then on a traced one, each in a
// child process with its own hazard cache, and then replays the same
// requests open loop at the nominal rate on a third server for the
// queueing numbers.
func traceServe(e *env, r *report, corpus []design) error {
	t, err := newTraced(e, serveTraceBlocks, requiredSpans...)
	if err != nil {
		return err
	}
	reqs := serveRequests(e.seed, serveTraceBlocks, corpus)
	plain, err := startChild(e, "serve", "")
	if err != nil {
		return err
	}
	defer plain.stop()
	spans := filepath.Join(e.work, "serve-spans.jsonl")
	traced, err := startChild(e, "serve", spans)
	if err != nil {
		return err
	}
	defer traced.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	var fresh freshChecks
	var totalMS, synthMS, simMS float64
	trans := 0
	idle := time.Now()
	for i := range reqs {
		q := &reqs[i]
		t.lagMS = append(t.lagMS, ms(time.Since(idle)))
		start := time.Now()
		u := send(c, plain.url, q)
		uMS := ms(time.Since(start))
		r.op(u.check(e.golden, q, &fresh))
		start = time.Now()
		v := send(c, traced.url, q)
		vMS := ms(time.Since(start))
		r.op(v.check(e.golden, q, &fresh))
		t.untracedMS += uMS
		t.tracedMS += vMS
		totalMS += uMS
		t.overheadMS += uMS - u.elapsedMS
		synthMS += u.synthMS
		simMS += u.simMS
		trans += u.trans
		t.c.add(u.stats)
		if q.d != nil {
			pt, err := parseMS(*q.d)
			if err != nil {
				return err
			}
			t.parseMS += pt
		}
		idle = time.Now()
	}
	_, dropped, err := traced.stop()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		return err
	}
	if err := t.agg.add(data, dropped); err != nil {
		return err
	}
	r.values["hfmin.synthesize_share"] = ratio(synthMS, totalMS)
	r.values["dsim.simulate_share"] = ratio(simMS, totalMS)
	r.values["dsim.transitions"] = float64(trans) / serveTraceBlocks

	// Open-loop replay on a fresh server, for queue wait, rejections and
	// generator lag under the workload's load.
	open, err := startChild(e, "serve", "")
	if err != nil {
		return err
	}
	defer open.stop()
	_, lag := openLoop(serveNominalRate, reqs, func(q *serveReq) {
		r.op(send(c, open.url, q).check(e.golden, q, &fresh))
	})
	t.lagMS = lag
	if r.values["server.queue_wait_share"], err = queueWaitShare(c, open.url); err != nil {
		return err
	}
	rejected, err := counter(c, open.url, server.MetricRejected)
	if err != nil {
		return err
	}
	r.values["server.rejected"] = rejected / serveTraceBlocks
	fresh.run(r)
	if t.annotateMS, err = annotateMS(library.BuiltinNames...); err != nil {
		return err
	}
	return t.finish(r)
}

// counter reads one counter from a server's /metrics JSON snapshot.
func counter(c *http.Client, base, name string) (float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return 0, fmt.Errorf("/metrics: %w", err)
	}
	return float64(snap.Counters[name]), nil
}

// queueWaitShare reads a server's /statusz: the share of request time
// spent waiting for an admission slot.
func queueWaitShare(c *http.Client, base string) (float64, error) {
	resp, err := c.Get(base + "/statusz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st server.StatuszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("/statusz: %w", err)
	}
	wait, req := st.Stages["queue_wait"], st.Stages["request"]
	return ratio(wait.MeanMS*float64(wait.Count), req.MeanMS*float64(req.Count)), nil
}
