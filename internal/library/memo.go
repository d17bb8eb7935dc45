package library

// The match memo. The covering DP decides every cluster by Boolean
// matching: for each cluster target (the cluster's truth table in one
// output phase) it searches every signature-compatible cell for the pin
// bindings that realise the target. The answer depends on the target and
// the index alone — not on the cluster's signals, costs, mode or options —
// and targets repeat heavily within a design and across designs. The memo
// stores the whole answer once per target: every candidate cell with a
// matching ON-count, in index order, each with every representative
// binding its search yields, in search order. The DP replays the list
// through the same binding visitor the search would have called, so a
// replay and a search make identical choices and count identical work.
//
// Contract:
//   - The memo belongs to one MatchIndex and dies with it, so every
//     replayed binding came from the matchers that index holds.
//   - Only targets with at least one compatible cell are stored; an empty
//     bucket is already answered by the index probe.
//   - A fill runs the search to the end, never stopping where a visitor
//     would, so one entry serves every mode and MaxBurst.
//   - A fill polls its context and publishes nothing when cancelled.
//   - An entry is one []int allocation, immutable once built. Every entry,
//     stored or not, is a fresh heap allocation, never pooled scratch, so
//     an accepted binding may alias its Perm for as long as it likes.
//   - A hit allocates nothing and takes only the read lock. Racing fills
//     of one target build equal entries; the first to publish is kept.
//   - Past memoBudget bytes a miss is still searched and replayed, but no
//     longer stored, and MemoStats reports the memo full.
//
// An entry e holds, for a target over N variables with W truth-table words:
//
//	e[0]            N
//	e[1 : 1+W]      the target's truth-table words
//	e[1+W]          k, the number of cells
//	e[2+W+2i]       cell i's position in the target's candidate bucket
//	e[3+W+2i]       the offset in e of cell i's first binding record
//	records         one per binding, N+1 ints: InvIn, then Perm
//
// Cell i's records end where cell i+1's begin, or at the end of e.

import (
	"context"
	"math/bits"
	"sync"

	"gfmap/internal/hazard"
	"gfmap/internal/match"
	"gfmap/internal/truthtab"
)

// memoBudget bounds the bytes one match index's memo retains. Mapping a
// thousand fresh 30-58-node designs on each built-in library in both modes
// stays far below it (memo_test.go).
const memoBudget = 1 << 20

// memoEntryOverhead is what an entry costs outside its own words: its hash
// key and slice header in the map, plus the map's slack.
const memoEntryOverhead = 48

// fillPollStride is how many recorded bindings pass between cancellation
// polls inside one cell's search; a fill also polls before every cell.
const fillPollStride = 256

type matchMemo struct {
	mu      sync.RWMutex
	entries map[uint64][]int // target hash -> entry
	bytes   int
	full    bool
	budget  int
}

// MemoStats is the size of a match memo.
type MemoStats struct {
	// Entries is the number of stored targets.
	Entries int
	// Bytes is the memory the entries retain, as memoEntryBytes counts it.
	Bytes int
	// Full reports that a fill found the byte budget spent: later misses
	// are searched and replayed but not stored.
	Full bool
}

// MemoStats reports the size of the memo of the library's current match
// index.
func (l *Library) MemoStats() MemoStats {
	m := &l.MatchIndex().memo
	m.mu.RLock()
	defer m.mu.RUnlock()
	return MemoStats{Entries: len(m.entries), Bytes: m.bytes, Full: m.full}
}

// MatchList is a read-only view of one memo entry: the cells compatible
// with one target, in index order, each with its bindings in search order.
// The zero MatchList has no cells.
type MatchList struct {
	e     []int
	cells []int // e's cell table: (bucket position, first record) pairs
	cands []*IndexedCell
}

func newMatchList(e []int, cands []*IndexedCell) MatchList {
	h := 1 + ttWords(e[0])
	return MatchList{e: e, cells: e[h+1 : h+1+2*e[h]], cands: cands}
}

// Cells returns the number of cells in the list.
func (ml MatchList) Cells() int { return len(ml.cells) / 2 }

// Cell returns the list's i-th cell and the number of its bindings.
func (ml MatchList) Cell(i int) (*IndexedCell, int) {
	end := len(ml.e)
	if 2*i+3 < len(ml.cells) {
		end = ml.cells[2*i+3]
	}
	return ml.cands[ml.cells[2*i]], (end - ml.cells[2*i+1]) / (1 + ml.e[0])
}

// Binding returns the i-th cell's j-th binding in search order. Its Perm
// aliases the immutable entry: it may be retained, never mutated.
func (ml MatchList) Binding(i, j int) hazard.Binding {
	n := ml.e[0]
	r := ml.cells[2*i+1] + j*(1+n)
	return hazard.Binding{Perm: ml.e[r+1 : r+1+n : r+1+n], InvIn: uint64(ml.e[r])}
}

// FillScratch is the reusable state of the searches that fill the memo:
// the permutation search's scratch and the entry under construction. It
// must not be shared between concurrent fills. Between fills it holds
// only integers and nil references.
type FillScratch struct {
	search match.Scratch
	rec    recorder
}

// Scrub zeroes the request-derived contents of the scratch, keeping its
// buffers, before a pool recycles it.
func (fs *FillScratch) Scrub() {
	fs.search.Scrub()
	clear(fs.rec.buf[:cap(fs.rec.buf)])
	fs.rec = recorder{buf: fs.rec.buf[:0]}
}

// recorder is the fill's binding visitor: it appends every binding it is
// shown to the entry under construction, and stops the search only when
// the fill's context is cancelled.
type recorder struct {
	buf   []int
	ctx   context.Context
	polls int
	err   error
}

func (r *recorder) Visit(b hazard.Binding) bool {
	r.buf = append(r.buf, int(b.InvIn))
	r.buf = append(r.buf, b.Perm...)
	if r.ctx != nil {
		if r.polls++; r.polls%fillPollStride == 0 {
			if r.err = r.ctx.Err(); r.err != nil {
				return false
			}
		}
	}
	return true
}

// Matches returns the match list of target, the cluster's truth table in
// one output phase, whose signature vector is tsig; cands must be the
// index's candidate bucket for target's signature key. A stored entry is
// returned as is; otherwise the list is filled by running every compatible
// cell's search to the end on fs, and stored if the budget allows. A
// target with no compatible cell gets the empty list and is never stored.
// ctx, when non-nil, is polled during a fill; a cancelled fill returns
// ctx's error and stores nothing.
func (x *MatchIndex) Matches(ctx context.Context, cands []*IndexedCell, target truthtab.TT, tsig truthtab.SigVector, fs *FillScratch) (MatchList, error) {
	compatible := false
	for _, ic := range cands {
		if ic.Matcher.Sig().Ones == tsig.Ones {
			compatible = true
			break
		}
	}
	if !compatible {
		return MatchList{}, nil
	}
	h := hashTT(target)
	x.memo.mu.RLock()
	e := x.memo.entries[h]
	x.memo.mu.RUnlock()
	if e != nil && sameTarget(e, target) {
		return newMatchList(e, cands), nil
	}
	e, err := fs.fill(ctx, cands, target, tsig)
	if err != nil {
		return MatchList{}, err
	}
	x.memo.publish(h, e)
	return newMatchList(e, cands), nil
}

// fill builds target's entry by running each compatible cell's search to
// the end. The entry is copied out of the scratch into a fresh allocation
// of exactly its size.
func (fs *FillScratch) fill(ctx context.Context, cands []*IndexedCell, target truthtab.TT, tsig truthtab.SigVector) ([]int, error) {
	buf := append(fs.rec.buf[:0], target.N)
	for _, w := range target.Bits {
		buf = append(buf, int(w))
	}
	h := len(buf)
	buf = append(buf, 0)
	for pos, ic := range cands {
		if ic.Matcher.Sig().Ones == tsig.Ones {
			buf[h]++
			buf = append(buf, pos, 0)
		}
	}
	k := buf[h]
	fs.rec = recorder{buf: buf, ctx: ctx}
	var err error
	for i := 0; i < k && err == nil; i++ {
		if ctx != nil {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		fs.rec.buf[h+2+2*i] = len(fs.rec.buf)
		cands[fs.rec.buf[h+1+2*i]].Matcher.FindScratch(target, tsig, &fs.rec, &fs.search)
		err = fs.rec.err
	}
	// Keep the buffer for the next fill, but not the context.
	buf = fs.rec.buf
	fs.rec = recorder{buf: buf[:0]}
	if err != nil {
		return nil, err
	}
	return append(make([]int, 0, len(buf)), buf...), nil
}

// publish stores a filled entry unless the budget is spent or the hash is
// taken — by a racing fill of the same target, whose entry is equal, or
// by another target, which then simply stays unstored.
func (m *matchMemo) publish(h uint64, e []int) {
	size := memoEntryBytes(e)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, taken := m.entries[h]; taken {
		return
	}
	if m.full || m.bytes+size > m.budget {
		m.full = true
		return
	}
	if m.entries == nil {
		m.entries = make(map[uint64][]int)
	}
	m.entries[h] = e
	m.bytes += size
}

// memoEntryBytes is the memory one stored entry retains.
func memoEntryBytes(e []int) int { return cap(e)*bits.UintSize/8 + memoEntryOverhead }

// sameTarget reports whether entry e was filled for target.
func sameTarget(e []int, target truthtab.TT) bool {
	if e[0] != target.N {
		return false
	}
	for i, w := range target.Bits {
		if uint64(e[1+i]) != w {
			return false
		}
	}
	return true
}

// hashTT hashes a truth table's variable count and words. Truth tables
// keep the bits past 2^N clear, so equal functions hash alike.
func hashTT(t truthtab.TT) uint64 {
	h := uint64(t.N) * 0x9e3779b97f4a7c15
	for _, w := range t.Bits {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// ttWords is the number of words of a truth table over n variables.
func ttWords(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << uint(n-6)
}
