// Package fleet distributes opaque HTTP jobs across a set of worker
// endpoints. It is the transport half of asyncmapd's coordinator mode:
// the server decides *what* each job is (one design per /map job) and
// how to answer; this package decides *where* each job runs and keeps it
// running.
//
// Dispatch is a work-stealing queue: every worker runs a fixed number of
// runner goroutines that pull jobs from one shared channel, so a slow
// worker naturally takes fewer jobs while fast workers drain the rest.
// Failures (transport errors, 5xx, bodies the caller's Validate rejects)
// are retried a bounded number of times, preferring a worker that has not
// seen the job yet. A job with no reply after HedgeAfter is hedged: a
// duplicate attempt is enqueued and the first byte-valid result wins,
// with the loser's request cancelled through its context. When remote
// attempts are exhausted the job falls back to the caller's Local
// function, so a dispatch always yields exactly one Result per job.
//
// 4xx statuses are *not* failures: they are deterministic outcomes (the
// job itself is unmappable) that every worker would reproduce, so they
// win immediately rather than burning retries.
package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gfmap/internal/obs"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers lists the worker base URLs ("http://host:port"); at least
	// one is required.
	Workers []string
	// Client issues the worker requests; nil means a dedicated client
	// with no global timeout (deadlines come from job/dispatch contexts).
	Client *http.Client
	// MaxAttempts bounds remote attempts per job — first try, retries and
	// the hedge all count; 0 means 3. Exhausted jobs run Local.
	MaxAttempts int
	// HedgeAfter is the straggler threshold: a job whose first attempt
	// has produced nothing after this long gets a duplicate attempt
	// enqueued (first valid result wins, the loser is cancelled).
	// 0 means 2s; negative disables hedging.
	HedgeAfter time.Duration
	// PerWorker is how many runner goroutines (hence concurrent requests)
	// serve each worker; 0 means 4.
	PerWorker int
	// MaxBodyBytes caps a worker response body; 0 means 64 MiB.
	MaxBodyBytes int64
	// StatusWindow is the rolling window of the per-worker latency
	// digests; 0 means 60s.
	StatusWindow time.Duration
	// Registry receives the coordinator's metrics (per-worker request /
	// failure / win counters, inflight gauges and rolling latency, plus
	// fleet-wide hedge / retry / fallback counters); nil means a private
	// registry.
	Registry *obs.Registry
	// Validate, when non-nil, decides byte-validity of a non-5xx worker
	// reply. A non-nil error marks the attempt failed (corrupt body) and
	// the job is retried elsewhere. Called off the caller's goroutine.
	Validate func(job Job, status int, body []byte) error
	// Local, when non-nil, runs a job in-process after remote attempts
	// are exhausted — the degradation path that keeps a batch's results
	// deterministic when workers misbehave. Nil means exhausted jobs
	// yield their last error.
	Local func(ctx context.Context, job Job) (status int, body []byte, err error)
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 2 * time.Second
	}
	if c.PerWorker <= 0 {
		c.PerWorker = 4
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.StatusWindow <= 0 {
		c.StatusWindow = time.Minute
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// LocalWorker is the Result.Worker value of a job served by the Local
// fallback rather than a remote worker.
const LocalWorker = "local"

// Job is one unit of dispatch: an opaque JSON payload POSTed to a path
// on whichever worker takes it. Index is the caller's correlation key
// and must be unique within one Go call.
type Job struct {
	Index int
	// Path is the worker-relative URL ("/map").
	Path string
	// Body is POSTed verbatim as application/json.
	Body []byte
	// Header holds extra request headers (e.g. X-Request-ID propagation).
	Header http.Header
	// Timeout bounds each individual attempt; 0 means the attempt runs
	// under the dispatch context's own deadline only. The per-job ctx is
	// always a child of the dispatch ctx, so the request deadline caps
	// every job either way.
	Timeout time.Duration
}

// Result is one job's outcome: the winning worker's reply (Status, Body,
// Worker), or the Local fallback's (Worker == LocalWorker), or Err when
// everything failed. Status below 500 with nil Err is a valid outcome —
// including 4xx, which are deterministic job-level errors, not worker
// failures.
type Result struct {
	Index    int
	Status   int
	Body     []byte
	Worker   string
	Attempts int
	Hedged   bool
	Err      error
}

// WorkerStatus is one worker's live view for /statusz.
type WorkerStatus struct {
	URL              string  `json:"url"`
	Healthy          bool    `json:"healthy"`
	Inflight         int64   `json:"inflight"`
	Requests         uint64  `json:"requests"`
	Failures         uint64  `json:"failures"`
	Wins             uint64  `json:"wins"`
	ConsecutiveFails int64   `json:"consecutive_failures"`
	LastError        string  `json:"last_error,omitempty"`
	P50MS            float64 `json:"p50_ms"`
	P90MS            float64 `json:"p90_ms"`
	P99MS            float64 `json:"p99_ms"`
}

// Status is the coordinator's live view.
type Status struct {
	Workers        []WorkerStatus `json:"workers"`
	Hedges         uint64         `json:"hedges"`
	Retries        uint64         `json:"retries"`
	LocalFallbacks uint64         `json:"local_fallbacks"`
}

// worker is the per-endpoint long-lived state.
type worker struct {
	url      string
	inflight atomic.Int64
	consec   atomic.Int64 // consecutive failures; 0 = healthy

	requests *obs.Counter
	failures *obs.Counter
	wins     *obs.Counter
	infGauge *obs.Gauge
	seconds  *obs.RollingHistogram

	mu      sync.Mutex
	lastErr string
}

func (w *worker) fail(err error) {
	w.failures.Inc()
	w.consec.Add(1)
	w.mu.Lock()
	w.lastErr = err.Error()
	w.mu.Unlock()
}

func (w *worker) ok() {
	w.consec.Store(0)
	w.mu.Lock()
	w.lastErr = ""
	w.mu.Unlock()
}

// Coordinator dispatches jobs across the configured workers. One
// Coordinator is long-lived (its per-worker stats accumulate across
// dispatches) and safe for concurrent Go calls.
type Coordinator struct {
	cfg     Config
	workers []*worker

	hedges    *obs.Counter
	retries   *obs.Counter
	fallbacks *obs.Counter
	jobs      *obs.Counter
}

// New builds a Coordinator. Worker metric names are indexed by position
// (fleet_worker0_requests_total, …) — stable names for scrapers; the
// index↔URL mapping is in Status and /statusz.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	c := &Coordinator{cfg: cfg}
	reg := cfg.Registry
	bounds := obs.ExpBuckets(1e-3, 2, 20)
	for i, u := range cfg.Workers {
		u = strings.TrimRight(u, "/")
		if u == "" {
			return nil, fmt.Errorf("fleet: empty worker URL at index %d", i)
		}
		p := fmt.Sprintf("fleet_worker%d_", i)
		c.workers = append(c.workers, &worker{
			url:      u,
			requests: reg.Counter(p + "requests_total"),
			failures: reg.Counter(p + "failures_total"),
			wins:     reg.Counter(p + "wins_total"),
			infGauge: reg.Gauge(p + "inflight"),
			seconds:  reg.Rolling(p+"seconds", bounds, cfg.StatusWindow, 6),
		})
	}
	c.hedges = reg.Counter("fleet_hedges_total")
	c.retries = reg.Counter("fleet_retries_total")
	c.fallbacks = reg.Counter("fleet_local_fallbacks_total")
	c.jobs = reg.Counter("fleet_jobs_total")
	return c, nil
}

// WorkerURLs returns the configured worker base URLs in metric-index
// order.
func (c *Coordinator) WorkerURLs() []string {
	out := make([]string, len(c.workers))
	for i, w := range c.workers {
		out[i] = w.url
	}
	return out
}

// Status snapshots the per-worker and fleet-wide counters.
func (c *Coordinator) Status() Status {
	st := Status{
		Hedges:         c.hedges.Value(),
		Retries:        c.retries.Value(),
		LocalFallbacks: c.fallbacks.Value(),
	}
	const ms = 1e3
	for _, w := range c.workers {
		snap := w.seconds.Snapshot()
		w.mu.Lock()
		lastErr := w.lastErr
		w.mu.Unlock()
		st.Workers = append(st.Workers, WorkerStatus{
			URL:              w.url,
			Healthy:          w.consec.Load() == 0,
			Inflight:         w.inflight.Load(),
			Requests:         w.requests.Value(),
			Failures:         w.failures.Value(),
			Wins:             w.wins.Value(),
			ConsecutiveFails: w.consec.Load(),
			LastError:        lastErr,
			P50MS:            snap.Quantile(0.50) * ms,
			P90MS:            snap.Quantile(0.90) * ms,
			P99MS:            snap.Quantile(0.99) * ms,
		})
	}
	return st
}

// Go dispatches jobs and returns a channel delivering exactly len(jobs)
// Results in completion order, then closing. A cancelled ctx finalises
// outstanding jobs with ctx.Err(); the channel always closes.
func (c *Coordinator) Go(ctx context.Context, jobs []Job) <-chan Result {
	out := make(chan Result, len(jobs))
	if len(jobs) == 0 {
		close(out)
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	c.jobs.Add(uint64(len(jobs)))
	d := &dispatch{
		c:   c,
		ctx: ctx,
		out: out,
		// Capacity covers every enqueue a job can cause (initial + hedge +
		// per-attempt requeues; skip-requeues are pop-then-push, net zero),
		// so queue sends never block a runner.
		queue:     make(chan *jobState, len(jobs)*(c.cfg.MaxAttempts+2)),
		done:      make(chan struct{}),
		startedBy: make(map[*worker]bool, len(c.workers)),
		busy:      make(map[*worker]int, len(c.workers)),
		parked:    make(map[*worker]int, len(c.workers)),
		progress:  make(chan struct{}),
	}
	d.remaining.Store(int64(len(jobs)))
	d.states = make([]*jobState, len(jobs))
	for i, job := range jobs {
		actx, cancel := context.WithCancel(ctx)
		js := &jobState{d: d, job: job, actx: actx, cancel: cancel}
		d.states[i] = js
		d.queue <- js
	}
	var wg sync.WaitGroup
	for _, w := range c.workers {
		for k := 0; k < c.cfg.PerWorker; k++ {
			wg.Add(1)
			go d.runner(&wg, w)
		}
	}
	go func() {
		wg.Wait()
		// Runners exit on done (all delivered) or ctx cancellation; any
		// job still unfinished is finalised here. finish is idempotent and
		// out is buffered for len(jobs), so this never blocks.
		for _, js := range d.states {
			js.finalize()
		}
		close(out)
	}()
	return out
}

// dispatch is the per-Go call state shared by the runners.
type dispatch struct {
	c         *Coordinator
	ctx       context.Context
	out       chan Result
	queue     chan *jobState
	done      chan struct{} // closed when every job has delivered
	remaining atomic.Int64
	states    []*jobState

	// mu guards this dispatch's view of its runners: the workers that
	// have started an attempt, each worker's runners inside an attempt
	// (local fallback included) and parked waiting for progress, and
	// progress itself, which is closed and replaced whenever an attempt
	// starts or ends or a hedge is queued — the events that change which
	// worker should take a job. Closing it wakes every parked runner, so
	// parked is cleared at the same time.
	mu        sync.Mutex
	startedBy map[*worker]bool
	busy      map[*worker]int
	parked    map[*worker]int
	progress  chan struct{}
}

// jobState tracks one job through attempts, hedging and delivery.
type jobState struct {
	d   *dispatch
	job Job

	// actx is the job-level attempt context (child of the dispatch ctx):
	// every attempt runs under it and the winner cancels it, aborting any
	// hedged loser mid-flight.
	actx   context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	finished   bool
	started    int // attempts handed to runners
	inFlight   int // attempts currently running
	hedged     bool
	triedBy    map[*worker]bool
	hedgeTimer *time.Timer
	lastErr    error
}

type takeVerdict int

const (
	takeRun  takeVerdict = iota // run an attempt now
	takeSkip                    // a preferred worker is free to take it; requeue
	takePark                    // as takeSkip, then wait for progress
	takeDrop                    // finished or out of attempts; discard the queue entry
)

// tryTake decides what a runner popping this job should do. A worker
// leaves the job to a preferred worker — one that has not tried this
// job and, for a first attempt, has not started any attempt of the
// dispatch, so first attempts spread over the fleet — but only while that
// worker has a free runner: one neither inside an attempt nor parked. A
// free runner is bound for the queue and will act, so the job is never
// left waiting on workers whose runners are all hung. again reports
// that this runner skipped the same job on its previous pop; it then
// parks, and the returned channel closes on the next progress.
func (js *jobState) tryTake(w *worker, again bool) (takeVerdict, <-chan struct{}) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.finished || js.started >= js.d.c.cfg.MaxAttempts {
		return takeDrop, nil
	}
	d := js.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if !js.preferredLocked(w) {
		for _, o := range d.c.workers {
			if js.preferredLocked(o) && d.busy[o]+d.parked[o] < d.c.cfg.PerWorker {
				if !again {
					return takeSkip, nil
				}
				d.parked[w]++
				return takePark, d.progress
			}
		}
	}
	d.startedBy[w] = true
	d.busy[w]++
	d.progressedLocked()
	if js.triedBy == nil {
		js.triedBy = make(map[*worker]bool, len(d.c.workers))
	}
	first := js.started == 0
	js.started++
	js.inFlight++
	js.triedBy[w] = true
	if first {
		js.armHedgeLocked()
	}
	return takeRun, nil
}

// preferredLocked reports whether w is a worker the job should go to
// first. Callers hold js.mu and d.mu.
func (js *jobState) preferredLocked(w *worker) bool {
	return !js.triedBy[w] && (js.started > 0 || !js.d.startedBy[w])
}

// armHedgeLocked schedules the straggler hedge when the first attempt
// starts: if nothing has finished the job by HedgeAfter, one duplicate
// attempt is enqueued (subject to the shared attempt budget).
func (js *jobState) armHedgeLocked() {
	after := js.d.c.cfg.HedgeAfter
	if after < 0 || js.d.c.cfg.MaxAttempts < 2 {
		return
	}
	js.hedgeTimer = time.AfterFunc(after, func() {
		js.mu.Lock()
		fire := !js.finished && !js.hedged && js.started < js.d.c.cfg.MaxAttempts
		if fire {
			js.hedged = true
		}
		js.mu.Unlock()
		if fire {
			js.d.c.hedges.Inc()
			js.d.requeue(js)
			js.d.progressed()
		}
	})
}

// requeue puts a job back on the dispatch queue. The queue is sized for
// every possible enqueue, so the send cannot block; the default arm is
// pure defence.
func (d *dispatch) requeue(js *jobState) {
	select {
	case d.queue <- js:
	default:
	}
}

// progressed wakes the parked runners.
func (d *dispatch) progressed() {
	d.mu.Lock()
	d.progressedLocked()
	d.mu.Unlock()
}

func (d *dispatch) progressedLocked() {
	close(d.progress)
	d.progress = make(chan struct{})
	clear(d.parked)
}

// runner pulls jobs for one worker until the dispatch completes.
func (d *dispatch) runner(wg *sync.WaitGroup, w *worker) {
	defer wg.Done()
	var lastSkipped *jobState
	for {
		select {
		case <-d.done:
			return
		case <-d.ctx.Done():
			return
		case js := <-d.queue:
			verdict, progress := js.tryTake(w, js == lastSkipped)
			switch verdict {
			case takeRun:
				lastSkipped = nil
				d.attempt(js, w)
			case takeSkip:
				lastSkipped = js
				d.requeue(js)
			case takePark:
				// The same job twice in a row: the queue holds nothing
				// else for this worker, and a free runner of a preferred
				// worker will take the job. Wait for an attempt to start
				// or end, or for a hedge, instead of spinning.
				lastSkipped = nil
				d.requeue(js)
				select {
				case <-progress:
				case <-d.done:
					return
				case <-d.ctx.Done():
					return
				}
			case takeDrop:
			}
		}
	}
}

// attempt runs one remote try of a job on a worker and routes the
// outcome: win, retry, hedge-covered failure, or local fallback.
func (d *dispatch) attempt(js *jobState, w *worker) {
	defer func() {
		d.mu.Lock()
		d.busy[w]--
		d.progressedLocked()
		d.mu.Unlock()
	}()
	ctx := js.actx
	var cancel context.CancelFunc
	if js.job.Timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, js.job.Timeout)
		defer cancel()
	}
	w.inflight.Add(1)
	w.infGauge.Set(float64(w.inflight.Load()))
	w.requests.Inc()
	begin := time.Now()
	status, body, err := d.post(ctx, w, js.job)
	w.seconds.Observe(time.Since(begin).Seconds())
	w.inflight.Add(-1)
	w.infGauge.Set(float64(w.inflight.Load()))
	if err == nil && status >= 500 {
		err = fmt.Errorf("fleet: worker %s: status %d: %s", w.url, status, truncate(body, 200))
	}
	if err == nil && d.c.cfg.Validate != nil {
		if verr := d.c.cfg.Validate(js.job, status, body); verr != nil {
			err = fmt.Errorf("fleet: worker %s: invalid body: %w", w.url, verr)
		}
	}
	if err == nil {
		js.win(w, status, body)
		return
	}
	js.fail(w, err)
}

// post issues the HTTP request for one attempt.
func (d *dispatch) post(ctx context.Context, w *worker, job Job) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+job.Path, bytes.NewReader(job.Body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range job.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := d.c.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, d.c.cfg.MaxBodyBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// win records the first byte-valid reply and cancels the job's other
// attempts. Later finishers find the job finished and stand down.
func (js *jobState) win(w *worker, status int, body []byte) {
	js.mu.Lock()
	js.inFlight--
	if js.finished {
		js.mu.Unlock()
		return
	}
	js.finished = true
	res := Result{Index: js.job.Index, Status: status, Body: body,
		Worker: w.url, Attempts: js.started, Hedged: js.hedged}
	js.stopHedgeLocked()
	js.mu.Unlock()
	w.ok()
	w.wins.Inc()
	js.cancel() // abort a hedged loser mid-flight
	js.d.deliver(res)
}

// fail records a failed attempt and decides what happens next: requeue
// while the attempt budget lasts, stand down while a concurrent (hedged)
// attempt is still running, otherwise fall back to Local.
func (js *jobState) fail(w *worker, err error) {
	js.mu.Lock()
	js.inFlight--
	if js.finished {
		// The job already won elsewhere; this is the cancelled loser (or a
		// straggler) — not a worker failure worth alarming on.
		js.mu.Unlock()
		return
	}
	js.lastErr = err
	ctxDead := js.d.ctx.Err() != nil
	canRetry := !ctxDead && js.started < js.d.c.cfg.MaxAttempts
	covered := js.inFlight > 0 // a hedge/retry is still running
	exhausted := !canRetry && !covered
	if exhausted || ctxDead {
		js.finished = true
		js.stopHedgeLocked()
	}
	js.mu.Unlock()
	w.fail(err)
	switch {
	case ctxDead:
		js.cancel()
		js.d.deliver(Result{Index: js.job.Index, Err: js.d.ctx.Err()})
	case canRetry:
		js.d.c.retries.Inc()
		js.d.requeue(js)
	case covered:
	default:
		js.cancel()
		js.d.fallback(js, err)
	}
}

func (js *jobState) stopHedgeLocked() {
	if js.hedgeTimer != nil {
		js.hedgeTimer.Stop()
		js.hedgeTimer = nil
	}
}

// finalize delivers a context-cancellation Result for a job the runners
// never finished (dispatch ctx ended). Idempotent.
func (js *jobState) finalize() {
	js.mu.Lock()
	if js.finished {
		js.mu.Unlock()
		return
	}
	js.finished = true
	js.stopHedgeLocked()
	err := js.d.ctx.Err()
	if err == nil {
		err = js.lastErr
	}
	if err == nil {
		err = errors.New("fleet: job never dispatched")
	}
	js.mu.Unlock()
	js.cancel()
	js.d.deliver(Result{Index: js.job.Index, Err: err})
}

// fallback runs the job locally after remote exhaustion — the path that
// keeps results deterministic when the whole fleet misbehaves.
func (d *dispatch) fallback(js *jobState, lastErr error) {
	if d.c.cfg.Local == nil {
		d.deliver(Result{Index: js.job.Index, Attempts: js.started, Hedged: js.hedged, Err: lastErr})
		return
	}
	d.c.fallbacks.Inc()
	status, body, err := d.c.cfg.Local(d.ctx, js.job)
	if err != nil {
		d.deliver(Result{Index: js.job.Index, Attempts: js.started, Hedged: js.hedged,
			Err: fmt.Errorf("fleet: local fallback after %w: %w", lastErr, err)})
		return
	}
	d.deliver(Result{Index: js.job.Index, Status: status, Body: body,
		Worker: LocalWorker, Attempts: js.started, Hedged: js.hedged})
}

// deliver sends a finished Result and, on the last one, releases the
// runners. The out channel is buffered for every job, so sends never
// block.
func (d *dispatch) deliver(res Result) {
	d.out <- res
	if d.remaining.Add(-1) == 0 {
		close(d.done)
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}
