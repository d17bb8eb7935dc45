package server

// The stage and counter lists reach every surface: trace spans,
// /statusz, the rolling summaries on /metrics, the registry counters
// and docs/OBSERVABILITY.md. Served runs carry the server's profiling
// and correlation options.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"gfmap/internal/core"
	"gfmap/internal/obs"
)

func getBody(t *testing.T, h http.Handler, target string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", target, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// After one traced /map and one /synth, every stage is a pipeline-track
// span (except request and queue_wait, which no span covers), a /statusz
// stage with samples and a rolling_<stage>_seconds summary; every work
// counter on /metrics is the sum of the two responses' Stats.
func TestStagesOnEverySurface(t *testing.T) {
	tracer := obs.NewTracer(0)
	s := newTestServer(t, Config{Tracer: tracer})
	h := s.Handler()
	w := postJSON(t, h, "/map", MapRequest{Format: "eqn", Design: fig3Eqn, Library: "LSI9K"})
	if w.Code != http.StatusOK {
		t.Fatalf("map: %d %s", w.Code, w.Body.String())
	}
	mapped := decodeMapResponse(t, w)
	req := httptest.NewRequest(http.MethodPost, "/synth", strings.NewReader(vmeSpec))
	sw := httptest.NewRecorder()
	h.ServeHTTP(sw, req)
	if sw.Code != http.StatusOK {
		t.Fatalf("synth: %d %s", sw.Code, sw.Body.String())
	}
	var synthesized SynthResponse
	if err := json.Unmarshal(sw.Body.Bytes(), &synthesized); err != nil {
		t.Fatal(err)
	}

	spans := map[string]bool{}
	for _, sp := range traceSpans(t, tracer) {
		if sp.Tid == obs.PipelineTrack {
			spans[sp.Name] = true
		}
	}
	var st StatuszResponse
	if err := json.Unmarshal(getBody(t, h, "/statusz"), &st); err != nil {
		t.Fatal(err)
	}
	want := []string{"request", "queue_wait", "decompose", "partition", "cover", "emit", "synthesize", "simulate"}
	if !slices.Equal(stages, want) || len(st.Stages) != len(want) {
		t.Errorf("stages %v and /statusz stages %v, want %v", stages, st.Stages, want)
	}
	prom := string(getBody(t, h, "/metrics?format=prom"))
	for i, stage := range stages {
		if hasSpan := i >= stagePhases; hasSpan != spans[stage] {
			t.Errorf("stage %s: pipeline-track span %v, want %v", stage, spans[stage], hasSpan)
		}
		if st.Stages[stage].Count == 0 {
			t.Errorf("stage %s: no samples on /statusz", stage)
		}
		if !strings.Contains(prom, "# TYPE rolling_"+stage+"_seconds summary\n") {
			t.Errorf("stage %s: no rolling_%s_seconds summary on /metrics", stage, stage)
		}
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(getBody(t, h, "/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	a, b := mapped.Stats.Counts(), synthesized.Stats.Counts()
	for i, c := range core.WorkCounters {
		if got, want := snap.Counters[c.Metric], uint64(*a[i]+*b[i]); got != want {
			t.Errorf("/metrics %s = %d, want %d + %d", c.Metric, got, *a[i], *b[i])
		}
	}
	if mapped.Stats.Cones == 0 || synthesized.Stats.Cones == 0 {
		t.Errorf("a request mapped no cone: %d and %d", mapped.Stats.Cones, synthesized.Stats.Cones)
	}
}

// Served runs carry the request ID, and CPU profile labels exactly when
// the server can be profiled.
func TestServedRunsLabelProfiles(t *testing.T) {
	ctx := withRequestID(context.Background(), "r-labels-1")
	for _, pprofOn := range []bool{false, true} {
		s := newTestServer(t, Config{EnablePprof: pprofOn})
		rr, err := s.resolveRequest(ctx, MapRequest{Format: "eqn", Design: fig3Eqn})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := s.resolveSynth(ctx, SynthRequest{Spec: vmeSpec})
		if err != nil {
			t.Fatal(err)
		}
		for path, opts := range map[string]core.Options{"/map": rr.opts, "/synth": rs.opts} {
			if opts.ProfileLabels != pprofOn || opts.RequestID != "r-labels-1" {
				t.Errorf("EnablePprof=%v: %s runs with ProfileLabels=%v RequestID=%q",
					pprofOn, path, opts.ProfileLabels, opts.RequestID)
			}
		}
	}
}

// docSection returns the lines of doc under heading, up to the next
// heading of the same or a higher level outside a code block.
func docSection(t *testing.T, doc, heading string) string {
	t.Helper()
	lines := strings.Split(doc, "\n")
	start := slices.Index(lines, heading)
	if start < 0 {
		t.Fatalf("docs/OBSERVABILITY.md has no heading %q", heading)
	}
	level, code := strings.IndexByte(heading, ' '), false
	end := start + 1
	for ; end < len(lines); end++ {
		l := lines[end]
		if strings.HasPrefix(l, "```") {
			code = !code
		}
		if !code && strings.HasPrefix(l, "#") && strings.IndexByte(l, ' ') <= level {
			break
		}
	}
	return strings.Join(lines[start+1:end], "\n")
}

// docs/OBSERVABILITY.md names every work counter in its metrics
// reference and on the cone span's row, every phase span in its span
// table, and every stage in its /statusz section.
func TestObservabilityDocCoversDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	metrics := docSection(t, doc, "## Metrics reference")
	spans := docSection(t, doc, "## Span taxonomy")
	statusz := docSection(t, doc, "### `/statusz` — rolling service status")
	spanRow := func(name string) string {
		for _, line := range strings.Split(spans, "\n") {
			if strings.HasPrefix(line, "| `"+name+"` |") {
				return line
			}
		}
		return ""
	}
	cone := spanRow("cone")
	for _, c := range core.WorkCounters {
		if !strings.Contains(metrics, "`"+c.Metric+"`") {
			t.Errorf("metrics reference does not name counter %s", c.Metric)
		}
		if c.Span != "" && !strings.Contains(cone, "`"+c.Span+"`") {
			t.Errorf("span table's cone row does not name attribute %s", c.Span)
		}
	}
	for i, stage := range stages {
		if i >= stagePhases && !strings.Contains(spanRow(stage), "| pipeline |") {
			t.Errorf("span table has no pipeline-track row for %s", stage)
		}
		if !strings.Contains(statusz, "`"+stage+"`") {
			t.Errorf("/statusz section does not name stage %s", stage)
		}
	}
}
