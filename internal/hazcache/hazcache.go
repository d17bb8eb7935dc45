// Package hazcache is a concurrency-safe memo of exact hazard-analysis
// results that a caller may share across cones, worker goroutines and
// whole mapping runs by passing one Cache to core.Options.HazardCache or
// server.Config.HazardCache. Without one, the mapper memoises analyses
// per cone only and analyses everything else fresh; clusters are at most
// MaxLeaves inputs wide, so a fresh analysis is cheap.
//
// Entries are keyed by the cluster's canonical truth table. Because the
// hazard set of an implementation depends on its *structure*, not only on
// its function (Figure 4: w*y + x*y hazards where (w+x)*y does not),
// equivalent-but-structurally-different clusters must not share a result:
// within a truth-table bucket, entries are disambiguated by the canonical
// structure. Canonicalisation sorts commutative operands and renames
// variables into first-use order, so clusters that are the same structure
// up to input permutation and operand ordering do share one entry; the
// cached set is stored in canonical variable space and translated through
// the recovered binding at lookup time. The cache is therefore
// semantically transparent: mapping results are bit-identical with a
// cache or without one, warm or cold.
//
// The cache is sharded by truth-table hash, each shard behind its own
// RWMutex, so highly parallel mapping runs (core.Options.Workers) scale
// without contention on one lock.
package hazcache

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"gfmap/internal/bexpr"
	"gfmap/internal/hazard"
	"gfmap/internal/truthtab"
)

const numShards = 64

// DefaultMaxEntries bounds a cache built with New(0); clusters are small
// (at most MaxLeaves inputs), so even the cap costs only a few tens of
// megabytes.
const DefaultMaxEntries = 1 << 16

// entry is one cached analysis: the hazard set of canonKey's structure in
// canonical variable space. A nil set records an analysis that failed
// (bounds exceeded), so the failure is not recomputed either.
type entry struct {
	structKey string
	set       *hazard.Set
}

type shard struct {
	mu      sync.RWMutex
	buckets map[string][]entry // canonical truth table -> entries per structure
	count   int
	// evictions is guarded by mu, so Stats can read it and count in one
	// consistent per-shard snapshot.
	evictions uint64
}

// Cache is a sharded hazard-analysis memo. The zero value is not usable;
// construct with New.
type Cache struct {
	maxPerShard int
	shards      [numShards]shard

	// hits and misses are atomics so the read-locked hit path never
	// writes under a read lock.
	hits, misses atomic.Uint64
}

// Stats is a point-in-time snapshot of the cache counters. Entries and
// Evictions are read under each shard's lock, so every shard contributes
// one internally consistent (count, evictions) pair.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// New returns an empty cache holding at most maxEntries analyses;
// maxEntries <= 0 means DefaultMaxEntries.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	per := maxEntries / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{maxPerShard: per}
	for i := range c.shards {
		c.shards[i].buckets = make(map[string][]entry)
	}
	return c
}

// Canon is the canonical form of a cluster function: a structurally
// normalised expression with variables renamed c0..ck in first-use order,
// the truth table of that expression, and the binding that translates
// hazard sets from canonical variable space back into the original one.
type Canon struct {
	Fn *bexpr.Function
	TT truthtab.TT
	// Back.Perm[i] is the original variable index of canonical variable i.
	Back hazard.Binding
	// N is the original function's variable count (canonical form drops
	// unused variables, the original space may be wider).
	N int
}

// canonName returns the canonical variable name for index i.
func canonName(i int) string { return fmt.Sprintf("c%d", i) }

// blindKey renders the expression with every variable leaf as "v": a
// name-independent shape-and-polarity key, so permuted instances of one
// structure sort their operands the same way before any renaming.
func blindKey(e *bexpr.Expr) string {
	return bexpr.Rename(e, func(string) string { return "v" }).String()
}

// sortTree returns a copy of e with the operands of every AND/OR sorted,
// primarily by their name-blind shape key and then by their rendered form.
// Reordering commutative operands never changes the hazard set: the
// interleaving delay model treats each leaf as an independent path, and
// permuting leaves only permutes path indices.
func sortTree(e *bexpr.Expr) *bexpr.Expr {
	switch e.Op {
	case bexpr.OpConst:
		return bexpr.Const(e.Val)
	case bexpr.OpVar:
		return bexpr.Var(e.Name)
	case bexpr.OpNot:
		return bexpr.Not(sortTree(e.Kids[0]))
	}
	type keyed struct {
		kid         *bexpr.Expr
		blind, full string
	}
	kids := make([]keyed, len(e.Kids))
	for i, k := range e.Kids {
		s := sortTree(k)
		kids[i] = keyed{kid: s, blind: blindKey(s), full: s.String()}
	}
	// Stable insertion sort (operand lists are short).
	less := func(a, b keyed) bool {
		if a.blind != b.blind {
			return a.blind < b.blind
		}
		return a.full < b.full
	}
	for i := 1; i < len(kids); i++ {
		for j := i; j > 0 && less(kids[j], kids[j-1]); j-- {
			kids[j], kids[j-1] = kids[j-1], kids[j]
		}
	}
	out := make([]*bexpr.Expr, len(kids))
	for i, k := range kids {
		out[i] = k.kid
	}
	if e.Op == bexpr.OpAnd {
		return bexpr.And(out...)
	}
	return bexpr.Or(out...)
}

// Canonicalize computes the canonical form of a cluster function. The
// normalisation alternates operand sorting with renaming variables into
// first-use order until stable (renaming can re-rank operands, so a few
// rounds may be needed; any fixed number of rounds is sound — full
// canonicity only affects the hit rate, never correctness, because the
// struct key records the exact normalised structure).
func Canonicalize(f *bexpr.Function) (Canon, error) {
	root := f.Root
	// cur maps the current variable names to original variable indices.
	cur := make(map[string]int, len(f.Vars))
	for i, v := range f.Vars {
		cur[v] = i
	}
	for iter := 0; iter < 4; iter++ {
		root = sortTree(root)
		order := root.CollectVars(nil)
		ren := make(map[string]string, len(order))
		next := make(map[string]int, len(order))
		changed := false
		for i, name := range order {
			cn := canonName(i)
			ren[name] = cn
			next[cn] = cur[name]
			if cn != name {
				changed = true
			}
		}
		if !changed {
			break
		}
		root = bexpr.Rename(root, func(s string) string { return ren[s] })
		cur = next
	}
	vars := root.CollectVars(nil)
	perm := make([]int, len(vars))
	for i, v := range vars {
		perm[i] = cur[v]
	}
	fn, err := bexpr.NewWithVars(root, vars)
	if err != nil {
		return Canon{}, err
	}
	tt, err := truthtab.FromExpr(fn)
	if err != nil {
		return Canon{}, err
	}
	return Canon{Fn: fn, TT: tt, Back: hazard.Binding{Perm: perm}, N: f.NumVars()}, nil
}

// translate maps a cached canonical-space set into the original variable
// space. The result is always a fresh set: cached sets are shared across
// goroutines and must never escape by reference.
func (cn Canon) translate(set *hazard.Set) *hazard.Set {
	if set == nil {
		return nil
	}
	return set.Translate(cn.Back, cn.N)
}

func shardIndex(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % numShards)
}

// Analyze returns the exact hazard set of f in f's own variable space,
// computing it on a miss and serving it from the cache on a hit. A nil set
// means the analysis is infeasible for this structure (bounds exceeded);
// that outcome is cached too. The boolean reports whether the result was
// served from the cache.
func (c *Cache) Analyze(f *bexpr.Function) (*hazard.Set, bool) {
	cn, err := Canonicalize(f)
	if err != nil || len(cn.Fn.Vars) != f.NumVars() {
		// Canonicalisation failures are not cacheable, and neither are
		// functions whose variable order is wider than their syntactic
		// support: hazards then spread over the unused dimensions in a way
		// translation does not reconstruct. Mapper clusters always use
		// every variable, so this path is a defensive fallback.
		c.misses.Add(1)
		set, aerr := hazard.Analyze(f)
		if aerr != nil {
			return nil, false
		}
		return set, false
	}
	ttKey := cn.TT.String()
	structKey := cn.Fn.Root.String()
	sh := &c.shards[shardIndex(ttKey)]

	sh.mu.RLock()
	for _, e := range sh.buckets[ttKey] {
		if e.structKey == structKey {
			sh.mu.RUnlock()
			c.hits.Add(1)
			return cn.translate(e.set), true
		}
	}
	sh.mu.RUnlock()

	// Miss: analyse outside the lock. Concurrent workers may briefly
	// duplicate an analysis; they converge on a single entry below.
	set, aerr := hazard.Analyze(cn.Fn)
	if aerr != nil {
		set = nil
	}
	c.misses.Add(1)

	sh.mu.Lock()
	for _, e := range sh.buckets[ttKey] {
		if e.structKey == structKey {
			// A racing worker inserted first; defer to its result so every
			// caller observes one authoritative set.
			set = e.set
			sh.mu.Unlock()
			return cn.translate(set), false
		}
	}
	if sh.count >= c.maxPerShard {
		// Evict an arbitrary bucket (map iteration order). Eviction only
		// costs future recomputation — results never change.
		for k, b := range sh.buckets {
			sh.count -= len(b)
			delete(sh.buckets, k)
			sh.evictions += uint64(len(b))
			break
		}
	}
	sh.buckets[ttKey] = append(sh.buckets[ttKey], entry{structKey: structKey, set: set})
	sh.count++
	sh.mu.Unlock()
	return cn.translate(set), false
}

// Stats returns a snapshot of the cache counters. Each shard's entry and
// eviction counts are read together under that shard's lock, so the sums
// are built from consistent per-shard pairs rather than field-by-field
// racing reads.
func (c *Cache) Stats() Stats {
	s := Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		s.Entries += sh.count
		s.Evictions += sh.evictions
		sh.mu.RUnlock()
	}
	return s
}
