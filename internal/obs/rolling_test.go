package obs

import (
	"sync"
	"testing"
	"time"
)

// fakeRolling builds a rolling histogram whose clock the test controls.
func fakeRolling(bounds []float64, window time.Duration, slots int) (*RollingHistogram, *time.Duration) {
	h := NewRollingHistogram(bounds, window, slots)
	elapsed := new(time.Duration)
	h.now = func() time.Duration { return *elapsed }
	return h, elapsed
}

func TestRollingHistogramWindow(t *testing.T) {
	h, clock := fakeRolling([]float64{1, 10, 100}, 60*time.Second, 6)
	h.Observe(5)
	h.Observe(50)
	snap := h.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("fresh samples missing: count = %d", snap.Count)
	}
	if q := snap.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %g, want 10", q)
	}

	// Half a window later both samples are still visible.
	*clock = 30 * time.Second
	if got := h.Snapshot().Count; got != 2 {
		t.Errorf("count after 30s = %d, want 2", got)
	}

	// New observation in a later slot coexists with the old ones.
	h.Observe(0.5)
	if got := h.Snapshot().Count; got != 3 {
		t.Errorf("count after new sample = %d, want 3", got)
	}

	// Past the full window the first samples age out; the 30s one stays
	// until its own slot leaves the window.
	*clock = 65 * time.Second
	snap = h.Snapshot()
	if snap.Count != 1 {
		t.Errorf("count after window rollover = %d, want 1 (only the 30s sample)", snap.Count)
	}

	// Far future: everything aged out.
	*clock = 10 * time.Minute
	if got := h.Snapshot().Count; got != 0 {
		t.Errorf("count long after = %d, want 0", got)
	}

	// A slot is reclaimed and reset when written again in a new epoch.
	h.Observe(2)
	snap = h.Snapshot()
	if snap.Count != 1 || snap.Sum != 2 {
		t.Errorf("reused slot snapshot = %+v, want exactly the new sample", snap)
	}
}

func TestRollingHistogramNil(t *testing.T) {
	var h *RollingHistogram
	h.Observe(1)
	h.ObserveDuration(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil rolling snapshot = %+v", s)
	}
	if h.Window() != 0 {
		t.Errorf("nil window = %v", h.Window())
	}
}

func TestRollingHistogramConcurrent(t *testing.T) {
	h := NewRollingHistogram(ExpBuckets(1e-4, 4, 10), time.Minute, 6)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(float64(i) * 1e-4)
				if i%100 == 0 {
					h.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8*500 {
		t.Errorf("count = %d, want %d", got, 8*500)
	}
}

func TestRegistryRolling(t *testing.T) {
	reg := NewRegistry()
	h := reg.Rolling("req_seconds", []float64{0.1, 1}, time.Minute, 6)
	if h == nil {
		t.Fatal("Rolling returned nil on an enabled registry")
	}
	if reg.Rolling("req_seconds", nil, 0, 0) != h {
		t.Error("Rolling lookup should return the same instance")
	}
	h.Observe(0.05)
	snap := reg.Snapshot()
	rs, ok := snap.Rolling["req_seconds"]
	if !ok || rs.Count != 1 {
		t.Errorf("registry snapshot rolling = %+v", snap.Rolling)
	}
	if txt := snap.Format(""); !containsLine(txt, "rolling req_seconds") {
		t.Errorf("Format missing rolling line:\n%s", txt)
	}

	var nilReg *Registry
	if nilReg.Rolling("x", nil, 0, 0) != nil {
		t.Error("nil registry should hand out nil rolling handles")
	}
}

func containsLine(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// The rolling observe path must stay allocation-free: it runs once per
// request (and once per pipeline stage per request) in the serving hot
// path.
func TestRollingObserveZeroAllocs(t *testing.T) {
	rh := NewRollingHistogram(ExpBuckets(1e-4, 4, 10), time.Minute, 6)
	var nilRH *RollingHistogram
	allocs := testing.AllocsPerRun(1000, func() {
		rh.Observe(0.25)
		rh.ObserveDuration(1.5)
		nilRH.Observe(1)
	})
	if allocs != 0 {
		t.Fatalf("rolling observe path allocates: %v allocs/op", allocs)
	}
}

func BenchmarkRollingHistogramObserve(b *testing.B) {
	rh := NewRollingHistogram(ExpBuckets(1e-4, 4, 12), time.Minute, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rh.Observe(float64(i&1023) * 1e-3)
	}
}
