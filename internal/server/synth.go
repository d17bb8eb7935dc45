package server

// POST /synth: the spec-to-silicon pipeline as a service. A burst-mode
// specification is parsed, synthesised into hazard-free two-level logic,
// technology mapped (always async mode — hazard preservation is the
// point), and the mapped netlist is simulated transition-by-transition to
// produce a machine-checkable hazard-freedom certificate. The endpoint
// shares the /map admission limiter, deadlines, request IDs and
// observability; the pipeline itself is deterministic, so the netlist and
// evidence bytes match `asyncmap -spec` for the same spec and library.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gfmap/internal/bmspec"
	"gfmap/internal/core"
	"gfmap/internal/synth"
)

// SynthRequest is one burst-mode specification to push through the
// pipeline. In a raw (non-JSON) POST to /synth the body is the spec text
// and the remaining fields come from query parameters of the same names.
type SynthRequest struct {
	// Spec is the burst-mode specification text (bmspec format).
	Spec string `json:"spec"`
	// Library is a preloaded library name; default is the server's first
	// configured library.
	Library string `json:"library,omitempty"`
	// Trials is the number of random-delay simulation trials per
	// transition on top of the deterministic unit-delay trial; 0 means
	// synth.DefaultTrials, values past synth.MaxTrials are clamped.
	Trials int `json:"trials,omitempty"`
	// Seed is the base seed of the evidence delay RNG; recorded in the
	// evidence so a run can be reproduced exactly.
	Seed uint64 `json:"seed,omitempty"`
	// VCD attaches a waveform dump to each transition's evidence.
	VCD bool `json:"vcd,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped at the server's MaxTimeout.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Output is "netlist" (default) or "none" (evidence and statistics
	// only).
	Output string `json:"output,omitempty"`
}

// SynthResponse is the pipeline's result: the mapped netlist plus the
// hazard-freedom evidence. A run whose certificate fails (evidence with
// hazard_free=false) still answers 200 — the pipeline worked and the
// evidence is the product; the client decides what a refutation means.
type SynthResponse struct {
	RequestID string `json:"request_id,omitempty"`
	// Name is the machine name from the spec.
	Name     string          `json:"name"`
	Library  string          `json:"library"`
	States   int             `json:"states"`
	Gates    int             `json:"gates"`
	Area     float64         `json:"area"`
	Delay    float64         `json:"delay"`
	Netlist  string          `json:"netlist,omitempty"`
	Evidence *synth.Evidence `json:"evidence"`
	Stats    core.Stats      `json:"stats"`
	// Wall-clock phase breakdown (reporting only; no payload bytes
	// depend on it).
	SynthesizeMS float64 `json:"synthesize_ms"`
	MapMS        float64 `json:"map_ms"`
	SimulateMS   float64 `json:"simulate_ms"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

func (s *Server) handleSynth(w http.ResponseWriter, r *http.Request) {
	rid := RequestIDFromContext(r.Context())
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, rid, errors.New("POST only"))
		return
	}
	s.requests.Inc()
	req, err := s.decodeSynthRequest(r)
	if err != nil {
		s.errorsC.Inc()
		writeError(w, http.StatusBadRequest, rid, err)
		return
	}
	release, err := s.acquire(r.Context())
	if err != nil {
		s.errorsC.Inc()
		if errors.Is(err, errBusy) {
			s.rejected.Inc()
			s.writeBusy(w, rid, err)
		} else {
			writeError(w, 499, rid, err)
		}
		return
	}
	defer release()
	resp, err := s.synthOne(r.Context(), req)
	if err != nil {
		s.errorsC.Inc()
		writeError(w, s.statusFor(err), rid, err)
		return
	}
	writeJSON(w, resp)
}

// decodeSynthRequest reads a /synth body: JSON when the Content-Type says
// so, otherwise the raw spec text with options in query parameters.
func (s *Server) decodeSynthRequest(r *http.Request) (SynthRequest, error) {
	var req SynthRequest
	body := http.MaxBytesReader(nil, r.Body, s.cfg.MaxBodyBytes)
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return req, fmt.Errorf("bad request JSON: %w", err)
		}
		return req, nil
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		return req, fmt.Errorf("read body: %w", err)
	}
	q := r.URL.Query()
	req = SynthRequest{
		Spec:    string(raw),
		Library: q.Get("library"),
		Output:  q.Get("output"),
		VCD:     q.Get("vcd") == "1" || q.Get("vcd") == "true",
	}
	for _, f := range []struct {
		key string
		dst *int
	}{
		{"trials", &req.Trials}, {"timeout_ms", &req.TimeoutMS},
	} {
		if v := q.Get(f.key); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("bad %s: %w", f.key, err)
			}
			*f.dst = n
		}
	}
	if v := q.Get("seed"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return req, fmt.Errorf("bad seed: %w", err)
		}
		req.Seed = n
	}
	return req, nil
}

// synthOne validates, synthesises, maps and simulates one spec under its
// deadline. The caller must already hold an admission slot.
func (s *Server) synthOne(ctx context.Context, req SynthRequest) (*SynthResponse, error) {
	if strings.TrimSpace(req.Spec) == "" {
		return nil, badInput(errors.New("empty spec"))
	}
	libName := req.Library
	if libName == "" {
		libName = s.order[0]
	}
	lib, ok := s.libs[libName]
	if !ok {
		return nil, badInput(fmt.Errorf("unknown library %q (loaded: %s)", libName, strings.Join(s.order, ", ")))
	}
	output := req.Output
	switch output {
	case "", "netlist":
		output = "netlist"
	case "none":
	default:
		return nil, badInput(fmt.Errorf("unknown output %q (want netlist or none)", output))
	}
	m, err := bmspec.ParseString(req.Spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", synth.ErrBadSpec, err)
	}
	entryFrom(ctx).setDesign(m.Name, libName)

	opts := synth.Options{
		Library: lib,
		Trials:  req.Trials,
		Seed:    req.Seed,
		WithVCD: req.VCD,
		Map: core.Options{
			Workers:     s.cfg.MapWorkers,
			HazardCache: s.cfg.HazardCache,
			Store:       s.cfg.Store,
			Metrics:     s.reg,
			Tracer:      s.cfg.Tracer,
			RequestID:   RequestIDFromContext(ctx),
		},
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	runCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	start := time.Now()
	res, err := synth.RunMachine(runCtx, m, opts)
	elapsed := time.Since(start)
	s.reqSeconds.Observe(elapsed.Seconds())
	if err != nil {
		return nil, err
	}
	s.designs.Inc()
	s.roll.synthesize.Observe(res.Durations.Synthesize.Seconds())
	s.roll.simulate.Observe(res.Durations.Simulate.Seconds())
	s.roll.decompose.Observe(res.Mapped.Stats.DecomposeTime.Seconds())
	s.roll.partition.Observe(res.Mapped.Stats.PartitionTime.Seconds())
	s.roll.cover.Observe(res.Mapped.Stats.CoverTime.Seconds())
	s.roll.emit.Observe(res.Mapped.Stats.EmitTime.Seconds())

	const ms = float64(time.Millisecond)
	resp := &SynthResponse{
		RequestID:    opts.Map.RequestID,
		Name:         m.Name,
		Library:      libName,
		States:       len(m.States()),
		Gates:        res.Mapped.Netlist.GateCount(),
		Area:         res.Mapped.Area,
		Delay:        res.Mapped.Delay,
		Evidence:     res.Evidence,
		Stats:        res.Mapped.Stats,
		SynthesizeMS: float64(res.Durations.Synthesize) / ms,
		MapMS:        float64(res.Durations.Map) / ms,
		SimulateMS:   float64(res.Durations.Simulate) / ms,
		ElapsedMS:    float64(elapsed) / ms,
	}
	if output == "netlist" {
		resp.Netlist = res.Mapped.Netlist.String()
	}
	return resp, nil
}
