package obs

// RollingHistogram keeps a time-sliced ring of fixed-bucket histograms so
// a scrape sees the last window's latency distribution (rolling p50/p99)
// rather than the process-lifetime one. It follows the package's
// discipline: a nil receiver is valid and inert, and the observe path is
// lock-free and allocation-free (pinned by AllocsPerRun in the package
// tests).

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// addFloat atomically adds v to a float64 stored as bits in an
// atomic.Uint64, CAS-retrying under contention.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// rollSlot is one time slice of a RollingHistogram. epoch is the absolute
// slot number this slice currently holds (+1, so 0 means never used).
type rollSlot struct {
	epoch  atomic.Uint64
	counts []atomic.Uint64 // len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// RollingHistogram is a fixed-bucket histogram over a sliding time
// window, implemented as a ring of slot histograms: observations land in
// the slot covering the current instant, and a snapshot merges the slots
// still inside the window. A slot is lazily reset the first time an
// observation (or snapshot) reaches it in a new epoch, so there is no
// background goroutine. Observation is lock-free and allocation-free; a
// nil *RollingHistogram is valid and inert.
//
// The merge includes the partially filled current slot, so a snapshot
// covers between window-slotDur and window seconds of history. A writer
// preempted across a full window rotation may land one sample in a
// neighbouring epoch's slot; the smear is bounded and only affects
// monitoring output, never mapping results.
type RollingHistogram struct {
	bounds  []float64
	slotDur time.Duration
	base    time.Time
	slots   []rollSlot
	// now is time.Since(base) — replaceable in tests.
	now func() time.Duration
}

// NewRollingHistogram builds a rolling histogram with the given inclusive
// upper bucket bounds covering roughly `window` of history split into
// `slots` ring slices. window <= 0 means 60s; slots <= 1 means 6.
func NewRollingHistogram(bounds []float64, window time.Duration, slots int) *RollingHistogram {
	if window <= 0 {
		window = time.Minute
	}
	if slots <= 1 {
		slots = 6
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &RollingHistogram{
		bounds:  b,
		slotDur: window / time.Duration(slots),
		base:    time.Now(),
		slots:   make([]rollSlot, slots),
	}
	if h.slotDur <= 0 {
		h.slotDur = time.Second
	}
	h.now = func() time.Duration { return time.Since(h.base) }
	for i := range h.slots {
		h.slots[i].counts = make([]atomic.Uint64, len(b)+1)
	}
	return h
}

// Window returns the nominal width of the sliding window.
func (h *RollingHistogram) Window() time.Duration {
	if h == nil {
		return 0
	}
	return h.slotDur * time.Duration(len(h.slots))
}

// epochNow returns the current absolute slot number + 1 (so it is never
// zero, the slot sentinel for "never used").
func (h *RollingHistogram) epochNow() uint64 {
	return uint64(h.now()/h.slotDur) + 1
}

// claim points s at epoch ep, resetting its contents if it held an older
// epoch. Returns false when the slot has already advanced past ep (the
// caller's sample is stale by a full rotation and is dropped).
func (s *rollSlot) claim(ep uint64) bool {
	for {
		old := s.epoch.Load()
		if old == ep {
			return true
		}
		if old > ep {
			return false
		}
		if s.epoch.CompareAndSwap(old, ep) {
			for i := range s.counts {
				s.counts[i].Store(0)
			}
			s.count.Store(0)
			s.sum.Store(0)
			return true
		}
	}
}

// Observe records one sample into the current window slice.
func (h *RollingHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	ep := h.epochNow()
	s := &h.slots[int(ep%uint64(len(h.slots)))]
	if !s.claim(ep) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	s.counts[i].Add(1)
	s.count.Add(1)
	addFloat(&s.sum, v)
}

// ObserveDuration records a sample given in seconds.
func (h *RollingHistogram) ObserveDuration(seconds float64) { h.Observe(seconds) }

// Snapshot merges the slots still inside the window (including the
// current, partially filled one) into a HistSnapshot.
func (h *RollingHistogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	cur := h.epochNow()
	oldest := uint64(1)
	if n := uint64(len(h.slots)); cur > n {
		oldest = cur - n + 1
	}
	snap := HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := range h.slots {
		s := &h.slots[i]
		ep := s.epoch.Load()
		if ep < oldest || ep > cur {
			continue
		}
		for j := range s.counts {
			snap.Counts[j] += s.counts[j].Load()
		}
		snap.Count += s.count.Load()
		snap.Sum += math.Float64frombits(s.sum.Load())
	}
	return snap
}
