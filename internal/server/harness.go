package server

// In-process fleet harness: a coordinator, its workers and a plain
// single-process twin, all inside one process on loopback listeners.
// This is the determinism rig the fleet diffcheck axis, gfmfuzz -fleet
// and the server's own fault-injection tests share: map the same request
// through CoordinatorURL and LocalURL and the responses' netlists must
// be byte-identical.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
)

// InProcessFleet is a running in-process fleet. Close shuts every
// listener down.
type InProcessFleet struct {
	// CoordinatorURL fronts the fleet (FleetWorkers set to WorkerURLs).
	CoordinatorURL string
	// WorkerURLs are the plain worker servers, in fleet index order.
	WorkerURLs []string
	// LocalURL is a single-process server with the same configuration and
	// no fleet — the byte-identity baseline.
	LocalURL string
	// Coordinator exposes the coordinator server (e.g. its Registry).
	Coordinator *Server

	closers []func()
}

// StartInProcessFleet boots n workers, one coordinator fronting them and
// one plain local twin, all from cfg (fleet fields in cfg are ignored;
// AccessLog defaults to silent — harness traffic would drown a real log).
func StartInProcessFleet(n int, cfg Config) (*InProcessFleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("server: fleet needs at least 1 worker, got %d", n)
	}
	if cfg.AccessLog == nil {
		cfg.AccessLog = io.Discard
	}
	f := &InProcessFleet{}
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()

	plain := cfg
	plain.FleetWorkers = nil
	plain.Registry = nil // each server gets its own registry
	for i := 0; i < n; i++ {
		_, url, err := f.serve(plain)
		if err != nil {
			return nil, err
		}
		f.WorkerURLs = append(f.WorkerURLs, url)
	}
	if _, url, err := f.serve(plain); err != nil {
		return nil, err
	} else {
		f.LocalURL = url
	}
	coord := cfg
	coord.Registry = nil
	coord.FleetWorkers = f.WorkerURLs
	srv, url, err := f.serve(coord)
	if err != nil {
		return nil, err
	}
	f.Coordinator = srv
	f.CoordinatorURL = url
	ok = true
	return f, nil
}

func (f *InProcessFleet) serve(cfg Config) (*Server, string, error) {
	srv, err := New(cfg)
	if err != nil {
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	f.closers = append(f.closers, func() { _ = hs.Close() })
	return srv, "http://" + ln.Addr().String(), nil
}

// MapBoth posts the same single-design batch to the coordinator and to
// the local twin and returns both outcomes. This is the fleet diffcheck
// axis's primitive: the coordinator dispatches the design as one /map
// job, so MapBoth exercises job dispatch, hedging and failure recovery
// end to end, and the two results must agree byte-for-byte.
func (f *InProcessFleet) MapBoth(req MapRequest) (viaFleet, viaLocal BatchResult, err error) {
	if viaFleet, err = postOneBatch(f.CoordinatorURL, req); err != nil {
		return
	}
	viaLocal, err = postOneBatch(f.LocalURL, req)
	return
}

func postOneBatch(base string, req MapRequest) (BatchResult, error) {
	body, err := json.Marshal(BatchRequest{Designs: []MapRequest{req}})
	if err != nil {
		return BatchResult{}, err
	}
	resp, err := http.Post(base+"/map/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return BatchResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return BatchResult{}, fmt.Errorf("batch status %d: %s", resp.StatusCode, msg)
	}
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return BatchResult{}, err
	}
	if len(br.Results) != 1 {
		return BatchResult{}, fmt.Errorf("batch returned %d results, want 1", len(br.Results))
	}
	return br.Results[0], nil
}

// Close stops every server in the harness.
func (f *InProcessFleet) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
}
