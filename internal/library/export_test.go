package library

import "gfmap/internal/truthtab"

// MemoBudget is the real byte budget of a match memo.
const MemoBudget = memoBudget

// SetMemoBudget sets the byte budget of the memo of l's current match
// index, so a test can reach the bound with little data.
func SetMemoBudget(l *Library, bytes int) {
	x := l.MatchIndex()
	x.memo.mu.Lock()
	x.memo.budget = bytes
	x.memo.mu.Unlock()
}

// MemoEntry is one stored memo entry: its target, its match list against
// the target's candidate bucket, and the bytes it retains.
type MemoEntry struct {
	Target truthtab.TT
	List   MatchList
	Bytes  int
}

// MemoEntries returns the stored entries of l's current match index.
func MemoEntries(l *Library) []MemoEntry {
	x := l.MatchIndex()
	x.memo.mu.RLock()
	defer x.memo.mu.RUnlock()
	var out []MemoEntry
	for _, e := range x.memo.entries {
		t := truthtab.TT{N: e[0], Bits: make([]uint64, ttWords(e[0]))}
		for i := range t.Bits {
			t.Bits[i] = uint64(e[1+i])
		}
		cands := x.Candidates(t.SigVec().AppendCanonKey(nil))
		out = append(out, MemoEntry{Target: t, List: newMatchList(e, cands), Bytes: memoEntryBytes(e)})
	}
	return out
}
