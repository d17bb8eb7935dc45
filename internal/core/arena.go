package core

// Per-worker arena allocation for the covering DP hot path.
//
// The cut → match → hazard pipeline is invoked once per (node, cut, phase,
// cell) tuple. Allocated per call, its transient memory — merged cut
// slices, cluster expression trees, truth-table words, signature vectors,
// binding scratch — costs an allocation on almost every step (the
// allocating DP survives as the test oracle in dp_ref_test.go). All of it
// instead comes from a coneScratch: a bundle of bump arenas, epoch-stamped
// mark slices and reusable buffers owned by exactly one DP worker at a
// time and reset once per cone (or once per cut, for the shortest-lived
// surfaces) instead of freed per call.
//
// Ownership rule: a coneScratch is touched by one goroutine at a time,
// never shared, never locked. Workers take one from scratchPool, use it
// for a batch of cones, scrub the reference-typed fields and return it.
// A panic mid-cone drops the scratch instead of pooling it, so poisoned
// state cannot resurface; error returns (including cancellation) leave
// the scratch structurally consistent and scrubbing severs every pointer
// to request-scoped data before the pool sees it.

import (
	"strconv"
	"sync"

	"gfmap/internal/bexpr"
	"gfmap/internal/library"
	"gfmap/internal/truthtab"
)

// intArenaBlock is the block size (in ints) of an intArena. Blocks are
// allocated once and reused for the life of the scratch; slices handed out
// never outgrow their block, so committed data stays valid until reset.
const intArenaBlock = 8192

// intArena is a block-based bump allocator for []int storage. Blocks are
// never reallocated or moved, so a slice returned by alloc stays valid
// (and stable) until reset; reset simply rewinds the cursor, keeping the
// blocks for reuse.
type intArena struct {
	blocks [][]int
	b, off int
}

func (a *intArena) reset() { a.b, a.off = 0, 0 }

// alloc returns a zero-length slice with capacity n drawn from the arena.
// Appending beyond n would escape to the heap; callers size n exactly.
func (a *intArena) alloc(n int) []int {
	if n > intArenaBlock {
		return make([]int, 0, n) // oversize: plain heap slice, GC'd on drop
	}
	if a.b == len(a.blocks) {
		a.blocks = append(a.blocks, make([]int, intArenaBlock))
	}
	if a.off+n > intArenaBlock {
		a.b++
		a.off = 0
		if a.b == len(a.blocks) {
			a.blocks = append(a.blocks, make([]int, intArenaBlock))
		}
	}
	s := a.blocks[a.b][a.off : a.off : a.off+n]
	a.off += n
	return s
}

// copyOf commits src into the arena and returns the stable copy.
func (a *intArena) copyOf(src []int) []int {
	return append(a.alloc(len(src)), src...)
}

// Block sizes of the expression arena: nodes per block and child-pointer
// slots per block.
const (
	exprArenaBlock = 512
	kidArenaBlock  = 1024
)

// exprArena bump-allocates bexpr.Expr nodes and their Kids slices for
// cluster functions. Expr nodes are linked by pointer, so value storage
// must never move: blocks are fixed-size arrays that stay put, and reset
// only rewinds the cursors. The arena is reset once per cut — a cluster
// expression only needs to outlive its own cut's matching.
type exprArena struct {
	blocks   [][]bexpr.Expr
	b, off   int
	kids     [][]*bexpr.Expr
	kb, koff int
}

func (a *exprArena) reset() { a.b, a.off, a.kb, a.koff = 0, 0, 0, 0 }

func (a *exprArena) node() *bexpr.Expr {
	if a.b == len(a.blocks) {
		a.blocks = append(a.blocks, make([]bexpr.Expr, exprArenaBlock))
	}
	if a.off == exprArenaBlock {
		a.b++
		a.off = 0
		if a.b == len(a.blocks) {
			a.blocks = append(a.blocks, make([]bexpr.Expr, exprArenaBlock))
		}
	}
	e := &a.blocks[a.b][a.off]
	a.off++
	*e = bexpr.Expr{}
	return e
}

func (a *exprArena) kidSlice(n int) []*bexpr.Expr {
	if n > kidArenaBlock {
		return make([]*bexpr.Expr, 0, n)
	}
	if a.kb == len(a.kids) {
		a.kids = append(a.kids, make([]*bexpr.Expr, kidArenaBlock))
	}
	if a.koff+n > kidArenaBlock {
		a.kb++
		a.koff = 0
		if a.kb == len(a.kids) {
			a.kids = append(a.kids, make([]*bexpr.Expr, kidArenaBlock))
		}
	}
	s := a.kids[a.kb][a.koff : a.koff : a.koff+n]
	a.koff += n
	return s
}

// staticVarNames holds the cluster variable names "v0", "v1", ... as
// static strings: cluster functions always name their variables by index,
// so the hot path never formats a name.
var staticVarNames = func() [64]string {
	var names [64]string
	for i := range names {
		names[i] = "v" + strconv.Itoa(i)
	}
	return names
}()

func varName(i int) string {
	if i < len(staticVarNames) {
		return staticVarNames[i]
	}
	return "v" + strconv.Itoa(i)
}

// coneScratch is the per-worker allocation state of the covering DP. All
// transient memory of the cut → match → hazard pipeline is drawn from it.
// Generation discipline:
//
//   - epoch marks (sigSeen, nodeMark, varMark) are stamped with a
//     monotonically increasing counter and never cleared — a stale entry
//     simply fails the current-epoch comparison;
//   - the cuts arena holds committed cut node lists and resets per cone;
//   - the tmp arena holds in-flight cut combinations and resets per
//     enumCuts call;
//   - the exprs arena holds cluster expression trees and resets per cut.
type coneScratch struct {
	epoch int64

	// Epoch-stamped marks: sigSeen counts distinct signals per cut,
	// nodeMark flags cut membership by node id, varMark/varOf map signal
	// ids to cluster variable indices.
	sigSeen  []int64
	nodeMark []int64
	varMark  []int64
	varOf    []int

	// sigIDs maps tree node id -> dense signal identity for the current
	// cone (leaves sharing a signal name share an id).
	sigIDs []int

	// Cut enumeration buffers: the rolling cross-product generations and
	// the per-kid option list.
	comboA, comboB []cutEntry
	kidOpts        []cutEntry

	tmp  intArena // in-flight merged cuts; reset per enumCuts call
	cuts intArena // committed (surviving) cuts; reset per cone

	exprs exprArena // cluster expression trees; reset per cut

	varNodes []int    // cluster variable -> tree node, reused per cut
	names    []string // cluster variable names (all from the static table)
	keyBuf   []byte   // match-index probe key, reused per cut

	// Truth-table and signature scratch for dpNode, reused per cut.
	ttPos, ttNeg   truthtab.TT
	sigPos, sigNeg truthtab.SigVector

	fn   bexpr.Function      // the cluster function, Reset per cut
	mc   matchCtx            // binding visitor, rebound per replayed cell
	fill library.FillScratch // memo fills: permutation search and entry under construction
}

// stamp advances the epoch and returns marks resized to n. Entries are
// never cleared: validity is "marks[i] == epoch", and the epoch is bumped
// on every call, so stale stamps (including ones surviving a pool
// round-trip — the epoch travels with the marks) can never match.
func (sc *coneScratch) stamp(marks *[]int64, n int) ([]int64, int64) {
	sc.epoch++
	m := *marks
	if cap(m) < n {
		m = make([]int64, n)
	} else {
		m = m[:n]
	}
	*marks = m
	return m, sc.epoch
}

// beginCone rewinds the per-cone arenas. Epoch marks need no reset — the
// counter keeps rising.
func (sc *coneScratch) beginCone() {
	sc.cuts.reset()
	sc.tmp.reset()
	sc.exprs.reset()
}

// scrub severs every pointer from the scratch to request-scoped data —
// the cone mapper, cluster functions, cell/matcher handles, cached hazard
// keys, signal-derived strings — so a pooled scratch reused by the next
// request carries only its own int/bool buffers and static var names.
func (sc *coneScratch) scrub() {
	sc.mc = matchCtx{}
	sc.fn.Reset(nil, nil)
	sc.fill.Scrub()
	sc.ttPos.N, sc.ttNeg.N = 0, 0
	clear(sc.ttPos.Bits)
	clear(sc.ttNeg.Bits)
	sc.sigPos.N, sc.sigPos.Ones = 0, 0
	sc.sigNeg.N, sc.sigNeg.Ones = 0, 0
	clear(sc.sigPos.C0)
	clear(sc.sigPos.C1)
	clear(sc.sigNeg.C0)
	clear(sc.sigNeg.C1)
	clear(sc.keyBuf[:cap(sc.keyBuf)])
	sc.keyBuf = sc.keyBuf[:0]
}

var scratchPool = sync.Pool{New: func() any { return new(coneScratch) }}

func acquireScratch() *coneScratch { return scratchPool.Get().(*coneScratch) }

// releaseScratch scrubs and pools a scratch. Callers must not release a
// scratch that may be mid-update (after a recovered panic the scratch is
// dropped instead).
func releaseScratch(sc *coneScratch) {
	sc.scrub()
	scratchPool.Put(sc)
}

// mergeCutInto merges two sorted, duplicate-free node lists into dst
// (zero length, capacity ≥ len(a)+len(b)). Equivalent to
// concatenate+sort+dedupe (mergeCut in dp_ref_test.go) on such inputs —
// which is all the enumeration ever produces — without the per-pair
// allocation.
func mergeCutInto(a, b, dst []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case b[j] < a[i]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}
