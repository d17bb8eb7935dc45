package server

// Fleet coordination: the server-side half of coordinator mode.
//
// A server started with FleetWorkers dispatches /map/batch work across
// plain asyncmapd workers through the internal/fleet queue. Each batch
// design, a single-design batch included, becomes one /map job on some
// worker; the coordinator relays the worker's response verbatim.
//
// Determinism is structural, not best-effort: every worker runs the same
// deterministic mapper, so a design's netlist is byte-identical to a
// single-process run whichever worker answers. Jobs fall back to local
// mapping after remote exhaustion for the same reason: a batch always
// completes with the same answers.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"gfmap/internal/fleet"
)

// fleetTransportSlack pads a job's attempt deadline past the design's own
// mapping deadline, so a worker that times out answers with its
// structured 504 body instead of the coordinator sawing the connection
// off first.
const fleetTransportSlack = 2 * time.Second

// fleetState wires a fleet.Coordinator into the server.
type fleetState struct {
	s     *Server
	coord *fleet.Coordinator

	// localMu serialises local fallbacks: the batch already holds one
	// admission slot, and fallbacks bypassing admission (they must, or a
	// busy coordinator would deadlock its own batch) should not multiply
	// beyond the single-process batch behaviour they emulate.
	localMu sync.Mutex
}

func newFleetState(s *Server) (*fleetState, error) {
	f := &fleetState{s: s}
	coord, err := fleet.New(fleet.Config{
		Workers:     s.cfg.FleetWorkers,
		HedgeAfter:  s.cfg.FleetHedgeAfter,
		MaxAttempts: s.cfg.FleetMaxAttempts,
		PerWorker:   s.cfg.FleetPerWorker,
		Client:      s.cfg.FleetClient,
		Registry:    s.reg,
		Validate:    validateFleetBody,
		Local:       f.local,
	})
	if err != nil {
		return nil, err
	}
	f.coord = coord
	return f, nil
}

// validateFleetBody is the fleet's byte-validity gate: a reply only wins
// if it parses as the wire type its status implies. Anything else is a
// corrupt worker and the attempt is retried elsewhere.
func validateFleetBody(_ fleet.Job, status int, body []byte) error {
	if status == http.StatusOK {
		var mr MapResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			return err
		}
		if mr.Name == "" {
			return errors.New("map response missing design name")
		}
		return nil
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		return err
	}
	if eb.Error == "" {
		return errors.New("error response missing message")
	}
	return nil
}

// local is the fleet's fallback after remote exhaustion: the design maps
// in-process, mimicking the worker's HTTP envelope so the result decodes
// uniformly.
func (f *fleetState) local(ctx context.Context, job fleet.Job) (int, []byte, error) {
	f.localMu.Lock()
	defer f.localMu.Unlock()
	var req MapRequest
	if err := json.Unmarshal(job.Body, &req); err != nil {
		return 0, nil, err
	}
	resp, err := f.s.mapOne(ctx, req)
	if err != nil {
		body, _ := json.Marshal(errorBody{Error: err.Error()})
		return f.s.statusFor(err), body, nil
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return 0, nil, err
	}
	return http.StatusOK, body, nil
}

// batchOutcomes dispatches one batch across the fleet, one job per
// design.
func (f *fleetState) batchOutcomes(ctx context.Context, rid string, designs []MapRequest) <-chan batchOutcome {
	jobs := make([]fleet.Job, len(designs))
	for i, req := range designs {
		body, _ := json.Marshal(req)
		jobs[i] = fleet.Job{
			Index:   i,
			Path:    "/map",
			Body:    body,
			Header:  fleetHeader(rid),
			Timeout: f.s.timeoutFor(req.TimeoutMS) + fleetTransportSlack,
		}
	}
	out := make(chan batchOutcome, len(designs))
	go func() {
		defer close(out)
		for r := range f.coord.Go(ctx, jobs) {
			out <- designOutcome(r)
		}
	}()
	return out
}

// designOutcome decodes one design job's fleet result into the batch
// outcome the response writers consume.
func designOutcome(r fleet.Result) batchOutcome {
	o := batchOutcome{index: r.Index}
	switch {
	case r.Err != nil:
		o.err = r.Err
	case r.Status == http.StatusOK:
		var mr MapResponse
		if err := json.Unmarshal(r.Body, &mr); err != nil {
			o.err = fmt.Errorf("decode worker response: %w", err)
			break
		}
		o.resp = &mr
	default:
		var eb errorBody
		if err := json.Unmarshal(r.Body, &eb); err != nil || eb.Error == "" {
			o.err = fmt.Errorf("worker status %d", r.Status)
			break
		}
		o.err = errors.New(eb.Error)
	}
	return o
}

// fleetHeader propagates the coordinator's request ID to the workers, so
// one batch correlates across every access log and trace in the fleet.
func fleetHeader(rid string) http.Header {
	h := http.Header{}
	if rid != "" {
		h.Set(RequestIDHeader, rid)
	}
	return h
}
