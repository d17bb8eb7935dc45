package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"gfmap/internal/bexpr"
	"gfmap/internal/hazard"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/match"
	"gfmap/internal/network"
	"gfmap/internal/truthtab"
)

const (
	phasePos = 0
	phaseNeg = 1
)

// mapper carries the per-run state of a mapping.
type mapper struct {
	lib     *library.Library
	opts    Options
	netlist *Netlist
	stats   Stats

	// tid is the trace track this mapper's cone work is recorded on
	// (1..Workers; track 0 carries the pipeline phases). met caches the
	// registry handles so hot loops never look metrics up by name.
	tid int
	met metricSet

	// reserved holds every signal name of the decomposed network, so
	// generated names (match signals, inverter outputs) never collide with
	// a design signal — including ones not yet emitted.
	reserved map[string]bool

	// Solution reuse: store is the optional persistent mapstore, and
	// libFP/optHash the identity components every entry is keyed under
	// (set only when a store is attached).
	store   *mapstore.Store
	libFP   string
	optHash string

	// polls counts cancellation-poll opportunities on the hot matching
	// path; the context is consulted once every cancelPollStride calls so
	// a bounded run stays within a few percent of an unbounded one.
	polls int

	// sc is the arena scratch this mapper's covering DP draws transient
	// memory from; one goroutine owns it at a time.
	sc *coneScratch

	// midx is the library's match index, taken once per run: every cut
	// probes its buckets and replays its memo.
	midx *library.MatchIndex

	inv        *library.Cell
	bufCell    *library.Cell
	invSignals map[string]string
}

// cancelPollStride is how many hot-path poll opportunities pass between
// actual context checks. Cancellation is still detected at every cone and
// cut boundary, so this only bounds the latency within one binding search.
const cancelPollStride = 1024

// ctxErr reports the run context's cancellation state at a coarse
// boundary; free when the run is unbounded.
func (m *mapper) ctxErr() error {
	if m.opts.Ctx == nil {
		return nil
	}
	return m.opts.Ctx.Err()
}

// pollCtx is ctxErr amortised for per-binding hot loops.
func (m *mapper) pollCtx() error {
	if m.opts.Ctx == nil {
		return nil
	}
	if m.polls++; m.polls%cancelPollStride != 0 {
		return nil
	}
	return m.opts.Ctx.Err()
}

// cost is a covering DP value: the quantity being minimised depends on
// the objective, with the other quantity as tie-break.
type cost struct {
	area  float64
	delay float64
}

func (c cost) better(o cost, obj Objective) bool {
	if obj == MinDelay {
		if c.delay != o.delay {
			return c.delay < o.delay
		}
		return c.area < o.area
	}
	if c.area != o.area {
		return c.area < o.area
	}
	return c.delay < o.delay
}

var infCost = cost{area: inf, delay: inf}

// tnode is one node of a cone's gate tree.
type tnode struct {
	op     bexpr.Op
	kids   []int
	signal string // leaf nodes: the cone-leaf signal name

	cost   [2]cost
	choice [2]*choice
}

// choice records how a node's function (in one phase) is best realised.
// The DP keeps one choice per node and phase in per-cone storage and
// overwrites it in place on every improvement; a match binding's Perm
// aliases the library's immutable memo entry.
type choice struct {
	// Inverter from the opposite phase.
	fromOtherPhase bool
	// Otherwise: a library-cell match over a cluster.
	cell    *library.Cell
	binding hazard.Binding
	varNode []int // cluster variable index -> tree node providing it
}

// cutEntry is one enumerated cluster cut below a node.
type cutEntry struct {
	nodes []int // cut node ids, sorted
	depth int
}

type coneMapper struct {
	m     *mapper
	cone  network.Cone
	nodes []tnode
	cuts  [][]cutEntry

	// sc is set (from the mapper) only while the covering DP solves this
	// cone; emission and solution replay never touch it. sigID/numSigs
	// give each node a dense signal identity (leaves sharing a signal name
	// share an id, every internal node has its own) so distinct cluster
	// inputs are counted with epoch marks instead of string maps.
	sc      *coneScratch
	sigID   []int
	numSigs int

	// hazCache is the per-cone memo of cluster hazard sets (already
	// translated into each cluster's variable space), consulted before
	// the shared cross-cone hazcache. Entries are owned by this cone.
	hazCache map[string]*hazard.Set
	emitted  map[[2]int]string
	matCount int

	// choices and varNodes are the per-cone storage of the DP's match
	// choices: one slot per (node, phase) that ever gets a match, each with
	// room for a cluster's variable nodes. Heap memory owned by the cone,
	// never pooled: the choices outlive the DP (encoding, emission).
	choices  []choice
	varNodes []int

	// stop latches the run context's error once a hot-loop poll observes
	// cancellation, so the enclosing binding search and cut loops unwind
	// immediately instead of re-polling.
	stop error
}

// otherPhase is the shared choice of realising a node as the inverse of
// its other phase. It carries no data, so every node can point at it.
var otherPhase = &choice{fromOtherPhase: true}

// ensureCells takes the run's match index and resolves the inverter and
// buffer cells.
func (m *mapper) ensureCells() error {
	m.midx = m.lib.MatchIndex()
	if m.inv == nil {
		m.inv = m.lib.MinInverter()
		if m.inv == nil {
			return fmt.Errorf("library %s has no inverter cell", m.lib.Name)
		}
	}
	if m.bufCell == nil {
		buf, err := truthtab.FromExpr(bexpr.MustParse("a"))
		if err != nil {
			return err
		}
		for _, c := range m.lib.Cells {
			if c.NumPins() == 1 && c.TT.Equal(buf) {
				if m.bufCell == nil || c.Area < m.bufCell.Area {
					m.bufCell = c
				}
			}
		}
	}
	return nil
}

// preparedCone is a cone with its covering DP solved, ready to emit.
type preparedCone struct {
	cm   *coneMapper
	root int

	// work is the deterministic counter delta of covering this cone's
	// signature: a later cone with the same signature shares this one's
	// choices and repeats its counters in the run's Stats (shareCone).
	work *Stats
}

// prepareCone builds the cone tree and solves the covering DP; ck is the
// cone's canonical signature (mapstore.ConeKey). It touches no shared
// mapper state (statistics are accumulated locally and merged by the
// caller), so cones can be prepared concurrently.
func (m *mapper) prepareCone(cone network.Cone, ck string) (*preparedCone, error) {
	tr := m.opts.Tracer
	sp := tr.StartSpanOn(m.tid, "cone")
	st0 := m.stats
	var t0 time.Time
	if m.met.coneSeconds != nil {
		t0 = time.Now()
	}
	cm := &coneMapper{
		m:        m,
		cone:     cone,
		hazCache: make(map[string]*hazard.Set),
		emitted:  make(map[[2]int]string),
	}
	root, err := cm.buildTree(cone.Expr.Root)
	if err != nil {
		sp.End()
		return nil, err
	}
	// Solution reuse: a mapstore entry replays the cone's recorded choices
	// (and deterministic work counters) in place of solving. Replay
	// installs exactly what the DP would have chosen for this identity
	// triple, so emission — which reads only the choices and recomputes
	// all naming against the live netlist — yields a byte-identical
	// result. An entry that fails decode validation is a miss: the cone is
	// solved from scratch and the poisoned entry repaired with a Replace
	// (a plain Put would dedupe against the bad record and leave it
	// poisoning every future run).
	var (
		ek       mapstore.Key
		hit      bool
		poisoned bool
	)
	if m.store != nil {
		ek = mapstore.EntryKey(ck, m.libFP, m.optHash)
		if b, ok := m.store.Get(ek); ok {
			if cm.applySolution(root, b) == nil {
				hit = true
				m.stats.StoreHits++
			} else {
				m.store.MarkCorrupt()
				poisoned = true
			}
		}
		if !hit {
			m.stats.StoreMisses++
		}
	}
	if !hit {
		cm.cuts = make([][]cutEntry, len(cm.nodes))
		for i := range cm.nodes {
			cm.nodes[i].cost = [2]cost{infCost, infCost}
		}
		cm.sc = m.sc
		cm.sc.beginCone()
		cm.assignSigIDs()
		dsp := tr.StartSpanOn(m.tid, "dp")
		err = cm.dp()
		dsp.End()
		// Detach the scratch as soon as the DP returns: accepted choices
		// hold heap copies of everything they need, so encoding and
		// emission must never read arena-backed data (the next cone's
		// beginCone rewinds it).
		cm.sc = nil
		if err != nil {
			sp.End()
			return nil, err
		}
	}
	work := statsDelta(m.stats, st0)
	if !hit && m.store != nil {
		enc := cm.encodeSolution(work)
		var perr error
		if poisoned {
			perr = m.store.Replace(ek, enc)
		} else {
			perr = m.store.Put(ek, enc)
		}
		// A failed persist (disk full, I/O error) costs durability, never
		// correctness: the solved cone proceeds regardless.
		_ = perr
	}
	if m.met.coneSeconds != nil {
		m.met.coneSeconds.Observe(time.Since(t0).Seconds())
	}
	d := m.stats
	sp.SetStr("cone", cone.Root)
	sp.SetInt("nodes", int64(len(cm.nodes)))
	sp.SetInt("clusters", int64(d.ClustersEnumerated-st0.ClustersEnumerated))
	sp.SetInt("matches", int64(d.MatchesFound-st0.MatchesFound))
	sp.SetInt("rejected", int64(d.MatchesRejected-st0.MatchesRejected))
	sp.SetInt("haz_local_hits", int64(d.HazCacheLocalHits-st0.HazCacheLocalHits))
	sp.SetInt("haz_shared_hits", int64(d.HazCacheHits-st0.HazCacheHits))
	sp.SetInt("haz_misses", int64(d.HazCacheMisses-st0.HazCacheMisses))
	sp.End()
	return &preparedCone{cm: cm, root: root, work: &work}, nil
}

// shareCone prepares a cone whose signature matches the already prepared
// cone rep. Equal signatures mean equal trees and leaf-equality patterns,
// so rep's choices are the ones the covering DP would make for the cone,
// and rep's counters the ones it would count. The cone gets its own tree,
// a copy of rep's with its own leaf signals, whose nodes point at rep's
// choices and operand lists; emission only reads both. The cone counts
// as a store hit when a store is attached, as a serial run that looked
// the cone up would count it.
func (m *mapper) shareCone(rep *preparedCone, cone network.Cone) *preparedCone {
	cm := &coneMapper{m: m, cone: cone, emitted: make(map[[2]int]string),
		nodes: append([]tnode(nil), rep.cm.nodes...)}
	// The tree is stored post-order, so the cone's expression visited in
	// post-order meets its nodes in index order.
	id := 0
	var relabel func(e *bexpr.Expr)
	relabel = func(e *bexpr.Expr) {
		for _, k := range e.Kids {
			relabel(k)
		}
		if e.Op == bexpr.OpVar {
			cm.nodes[id].signal = e.Name
		}
		id++
	}
	relabel(cone.Expr.Root)
	m.stats.merge(*rep.work)
	if m.store != nil {
		m.stats.StoreHits++
	}
	return &preparedCone{cm: cm, root: rep.root, work: rep.work}
}

// prepareConeProfiled runs prepareCone, attaching runtime/pprof labels
// ("worker", "cone" — plus "request" when the run carries a request ID)
// when Options.ProfileLabels is set so CPU profiles can be sliced per
// worker goroutine, per cone, and per in-flight service request.
func (m *mapper) prepareConeProfiled(cone network.Cone, ck string) (pc *preparedCone, err error) {
	if !m.opts.ProfileLabels {
		return m.prepareCone(cone, ck)
	}
	var labels pprof.LabelSet
	if m.opts.RequestID != "" {
		labels = pprof.Labels("worker", strconv.Itoa(m.tid), "cone", cone.Root, "request", m.opts.RequestID)
	} else {
		labels = pprof.Labels("worker", strconv.Itoa(m.tid), "cone", cone.Root)
	}
	pprof.Do(context.Background(), labels, func(context.Context) {
		pc, err = m.prepareCone(cone, ck)
	})
	return pc, err
}

// prepareCones prepares every cone and returns them in cone order, so
// emission — and therefore the final netlist — is identical to a serial
// run, together with the number of distinct cone signatures. A cone's
// cover depends only on its signature (mapstore.ConeKey), so each
// signature is covered once, on its first cone, in parallel when
// Options.Workers > 1; every later cone with that signature shares the
// result (shareCone).
func (m *mapper) prepareCones(cones []network.Cone) ([]*preparedCone, int, error) {
	keys := make([]string, len(cones))
	rep := make([]int, len(cones)) // the first cone with each cone's signature
	first := make(map[string]int, len(cones))
	var reps []int
	for i, cone := range cones {
		keys[i] = mapstore.ConeKey(cone.Expr)
		j, seen := first[keys[i]]
		if !seen {
			j = i
			first[keys[i]] = i
			reps = append(reps, i)
		}
		rep[i] = j
	}
	out := make([]*preparedCone, len(cones))
	if err := m.coverCones(cones, keys, reps, out); err != nil {
		return nil, 0, err
	}
	for i, j := range rep {
		if j != i {
			out[i] = m.shareCone(out[j], cones[i])
		}
	}
	return out, len(reps), nil
}

// coverCones runs prepareCone on the cones indexed by todo, storing each
// result at its index in out, in parallel when Options.Workers > 1.
func (m *mapper) coverCones(cones []network.Cone, keys []string, todo []int, out []*preparedCone) error {
	workers := m.opts.Workers
	if workers <= 1 || len(todo) < 2 {
		for _, i := range todo {
			if err := m.ctxErr(); err != nil {
				return err
			}
			pc, err := m.prepareConeProfiled(cones[i], keys[i])
			if err != nil {
				return fmt.Errorf("core: cone %s: %w", cones[i].Root, err)
			}
			out[i] = pc
		}
		return nil
	}
	// Cones are dispatched in contiguous chunks (a few per worker) rather
	// than one at a time: a worker amortises its mapper shim, its arena
	// scratch and its channel receives over the whole chunk instead of
	// paying for them per cone.
	type job struct{ lo, hi int }
	chunk := (len(todo) + workers*4 - 1) / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	errs := make([]error, len(todo))
	wstats := make([]Stats, workers)
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker accumulates statistics into its own mapper shim
			// to avoid data races, merged below (integer sums, so the merge
			// order never shows). Worker w records its cone spans on trace
			// track w+1 and owns one arena scratch for its whole lifetime —
			// strictly private, so no locking anywhere on the hot path.
			shadow := &mapper{lib: m.lib, opts: m.opts, netlist: m.netlist, midx: m.midx,
				inv: m.inv, bufCell: m.bufCell, tid: w + 1, met: m.met,
				reserved: m.reserved, store: m.store,
				libFP: m.libFP, optHash: m.optHash, sc: acquireScratch()}
			clean := true
			// Workers always drain the jobs channel — on cancellation they
			// skip the work per cone rather than stop receiving, so the
			// feeder below never blocks and no goroutine outlives this call.
			for j := range jobs {
				for k := j.lo; k < j.hi; k++ {
					if err := m.ctxErr(); err != nil {
						errs[k] = err
						clean = false
						continue
					}
					i := todo[k]
					pc, err := prepareConeIsolated(shadow, cones[i], keys[i])
					if err != nil {
						errs[k] = fmt.Errorf("core: cone %s: %w", cones[i].Root, err)
						clean = false
						continue
					}
					pc.cm.m = m // emission uses the real mapper
					out[i] = pc
				}
			}
			wstats[w] = shadow.stats
			// Pool the scratch only after an all-clean run: an error or a
			// cancellation drops it, so no partially-built or
			// request-scoped state can reach the next request (a panic
			// already replaced it in prepareConeIsolated).
			if clean {
				releaseScratch(shadow.sc)
			}
		}(w)
	}
	for lo := 0; lo < len(todo); lo += chunk {
		jobs <- job{lo, min(lo+chunk, len(todo))}
	}
	close(jobs)
	wg.Wait()
	// A cancelled run reports the context's error in preference to the
	// per-cone wrappers, so callers see ctx.Err() itself.
	if err := m.ctxErr(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, st := range wstats {
		m.stats.merge(st)
	}
	return nil
}

// prepareConeIsolated runs the covering DP for one cone, converting a
// panic on the worker goroutine into an error. A panic in a worker would
// otherwise kill the whole process — unacceptable for a long-lived
// mapping service, where one poisoned request must not take down its
// neighbours.
func prepareConeIsolated(m *mapper, cone network.Cone, ck string) (pc *preparedCone, err error) {
	defer func() {
		if r := recover(); r != nil {
			// The scratch may be mid-update at the panic point: drop it
			// (never pool it) and give the worker's later cones a fresh
			// one.
			m.sc = new(coneScratch)
			pc, err = nil, fmt.Errorf("panic in covering DP: %v", r)
		}
	}()
	return m.prepareConeProfiled(cone, ck)
}

// emitCone realises a prepared cone into the shared netlist.
func (m *mapper) emitCone(pc *preparedCone) error {
	return pc.cm.emitRoot(pc.root)
}

// buildTree flattens the cone expression into an indexed tree, post-order
// (children before parents).
func (cm *coneMapper) buildTree(e *bexpr.Expr) (int, error) {
	switch e.Op {
	case bexpr.OpVar:
		cm.nodes = append(cm.nodes, tnode{op: bexpr.OpVar, signal: e.Name})
		return len(cm.nodes) - 1, nil
	case bexpr.OpConst:
		return -1, fmt.Errorf("constant nodes are not supported by the mapper")
	case bexpr.OpNot, bexpr.OpAnd, bexpr.OpOr:
		kids := make([]int, len(e.Kids))
		for i, k := range e.Kids {
			id, err := cm.buildTree(k)
			if err != nil {
				return -1, err
			}
			kids[i] = id
		}
		cm.nodes = append(cm.nodes, tnode{op: e.Op, kids: kids})
		return len(cm.nodes) - 1, nil
	}
	return -1, fmt.Errorf("bad expression op %d", e.Op)
}

// assignSigIDs precomputes a dense integer signal identity per tree node,
// the identity distinct cluster inputs are counted by: leaves sharing a
// signal name share an id, every internal node is its own signal. The
// leaf-name map is deliberately heap-allocated per cone — signal names are
// request-scoped and must never be retained by the pooled scratch, whose
// sigIDs buffer holds only ints.
func (cm *coneMapper) assignSigIDs() {
	sc := cm.sc
	if cap(sc.sigIDs) < len(cm.nodes) {
		sc.sigIDs = make([]int, len(cm.nodes))
	}
	ids := sc.sigIDs[:len(cm.nodes)]
	var leafID map[string]int
	next := 0
	for i := range cm.nodes {
		n := &cm.nodes[i]
		if n.op != bexpr.OpVar {
			ids[i] = next
			next++
			continue
		}
		if leafID == nil {
			leafID = make(map[string]int)
		}
		id, ok := leafID[n.signal]
		if !ok {
			id = next
			next++
			leafID[n.signal] = id
		}
		ids[i] = id
	}
	cm.sigID = ids
	cm.numSigs = next
}

// maxCutsPerNode caps cut enumeration to keep pathological cones bounded.
const maxCutsPerNode = 1500

// enumCuts returns the cluster cuts available below node id (memoised).
// The combo cross product lives in the scratch's tmp arena and ping-pong
// generation buffers, and only the cuts surviving the depth/leaf filter
// are committed to the per-cone cuts arena. Every child is enumerated
// before those buffers go live, so the recursion never re-enters a live
// enumeration.
func (cm *coneMapper) enumCuts(id int) []cutEntry {
	if cm.cuts[id] != nil {
		return cm.cuts[id]
	}
	n := &cm.nodes[id]
	if n.op == bexpr.OpVar {
		cm.cuts[id] = []cutEntry{}
		return cm.cuts[id]
	}
	for _, kid := range n.kids {
		cm.enumCuts(kid)
	}
	sc := cm.sc
	sc.tmp.reset()
	// Each child contributes either itself as a cut point or one of its own
	// cuts; combine across children.
	depthAdd := 1
	if n.op == bexpr.OpNot {
		depthAdd = 0 // complements fold into gates; the paper's depth counts gate levels
	}
	truncated := false
	combos := append(sc.comboA[:0], cutEntry{})
	next := sc.comboB[:0]
	for _, kid := range n.kids {
		kidOpts := append(sc.kidOpts[:0], cutEntry{nodes: append(sc.tmp.alloc(1), kid)})
		kidOpts = append(kidOpts, cm.cuts[kid]...)
		sc.kidOpts = kidOpts
		next = next[:0]
	combine:
		for _, base := range combos {
			for _, opt := range kidOpts {
				merged := mergeCutInto(base.nodes, opt.nodes,
					sc.tmp.alloc(len(base.nodes)+len(opt.nodes)))
				d := base.depth
				if opt.depth > d {
					d = opt.depth
				}
				next = append(next, cutEntry{nodes: merged, depth: d})
				if len(next) > 4*maxCutsPerNode {
					// Combo explosion: abandon the whole cross product, not
					// just the current base, so the bound actually bounds.
					truncated = true
					break combine
				}
			}
		}
		combos, next = next, combos
	}
	var out []cutEntry
	for ci := range combos {
		c := combos[ci]
		depth := c.depth + depthAdd
		if depth > cm.m.opts.MaxDepth {
			continue
		}
		if cm.distinctSignals(c.nodes) > cm.m.opts.MaxLeaves {
			continue
		}
		// Survivors are committed to the per-cone arena: the tmp copy dies
		// at the next enumCuts call, the committed copy lives as long as
		// the memo table needs it.
		out = append(out, cutEntry{nodes: sc.cuts.copyOf(c.nodes), depth: depth})
		if len(out) >= maxCutsPerNode {
			if ci < len(combos)-1 {
				truncated = true
			}
			break
		}
	}
	sc.comboA, sc.comboB = combos, next
	if truncated {
		cm.m.stats.CutTruncations++
	}
	cm.m.met.cutsPerNode.Observe(float64(len(out)))
	cm.cuts[id] = out
	return out
}

// distinctSignals counts the distinct input signals of a cut with
// epoch-stamped membership over the precomputed signal ids: no map, no
// clearing, re-entrant (each call gets a fresh epoch).
func (cm *coneMapper) distinctSignals(nodes []int) int {
	sc := cm.sc
	marks, ep := sc.stamp(&sc.sigSeen, cm.numSigs)
	count := 0
	for _, id := range nodes {
		if s := cm.sigID[id]; marks[s] != ep {
			marks[s] = ep
			count++
		}
	}
	return count
}

// clusterFunction builds the cluster's BFF over its distinct input signals
// and the mapping from variable index to providing tree node. The
// expression tree lives in the scratch's per-cut expression arena, cut
// membership and the signal→variable map are epoch-stamped int slices,
// variable names come from the static table, and the Function is the
// scratch's reusable one. The returned function and varNodes are valid
// until the next cut; anything retained past that (bindings, choices) is
// heap-copied by the consumer. Construction mirrors bexpr.Var/Not/And/Or
// exactly — including the single-operand collapse — so the hazard keys
// printed from the tree are the ones bexpr's constructors would give.
func (cm *coneMapper) clusterFunction(root int, cut []int) (*bexpr.Function, []int) {
	sc := cm.sc
	nodeMark, nep := sc.stamp(&sc.nodeMark, len(cm.nodes))
	for _, id := range cut {
		nodeMark[id] = nep
	}
	varMark, vep := sc.stamp(&sc.varMark, cm.numSigs)
	if cap(sc.varOf) < cm.numSigs {
		sc.varOf = make([]int, cm.numSigs)
	}
	varOf := sc.varOf[:cm.numSigs]
	sc.varNodes = sc.varNodes[:0]
	sc.names = sc.names[:0]
	sc.exprs.reset()
	var build func(id int) *bexpr.Expr
	build = func(id int) *bexpr.Expr {
		if nodeMark[id] == nep {
			s := cm.sigID[id]
			v := varOf[s]
			if varMark[s] != vep {
				v = len(sc.names)
				varMark[s] = vep
				varOf[s] = v
				sc.names = append(sc.names, varName(v))
				sc.varNodes = append(sc.varNodes, id)
			}
			e := sc.exprs.node()
			e.Op, e.Name = bexpr.OpVar, sc.names[v]
			return e
		}
		n := &cm.nodes[id]
		switch n.op {
		case bexpr.OpVar:
			// A cone leaf not in the cut cannot happen: leaves are always
			// cut points.
			panic("core: leaf outside cut")
		case bexpr.OpNot:
			e := sc.exprs.node()
			e.Op = bexpr.OpNot
			e.Kids = append(sc.exprs.kidSlice(1), build(n.kids[0]))
			return e
		default:
			kids := sc.exprs.kidSlice(len(n.kids))
			for _, k := range n.kids {
				kids = append(kids, build(k))
			}
			switch len(kids) {
			case 0:
				e := sc.exprs.node()
				e.Op, e.Val = bexpr.OpConst, n.op == bexpr.OpAnd
				return e
			case 1:
				return kids[0]
			}
			e := sc.exprs.node()
			e.Op, e.Kids = n.op, kids
			return e
		}
	}
	expr := build(root)
	sc.fn.Reset(expr, sc.names)
	return &sc.fn, sc.varNodes
}

// dp computes the two-phase covering costs bottom-up. The tree is stored
// post-order, so a single pass over the node array visits children first.
func (cm *coneMapper) dp() error {
	for id := range cm.nodes {
		if err := cm.m.ctxErr(); err != nil {
			return err
		}
		n := &cm.nodes[id]
		if n.op == bexpr.OpVar {
			// Cone leaves exist for free; their complements cost an
			// inverter. Leaf arrival times are taken as zero: cones are
			// mapped in topological order, so a uniform offset per leaf
			// does not change the choice of cover.
			n.cost[phasePos] = cost{}
			n.cost[phaseNeg] = cost{area: cm.m.inv.Area, delay: cm.m.inv.Delay}
			continue
		}
		if err := cm.dpNode(id); err != nil {
			return err
		}
	}
	return nil
}

func (cm *coneMapper) dpNode(id int) error {
	n := &cm.nodes[id]
	tr := cm.m.opts.Tracer
	csp := tr.StartSpanOn(cm.m.tid, "cuts")
	cuts := cm.enumCuts(id)
	csp.SetInt("node", int64(id))
	csp.SetInt("cuts", int64(len(cuts)))
	csp.End()
	msp := tr.StartSpanOn(cm.m.tid, "match")
	msp.SetInt("node", int64(id))
	msp.SetInt("clusters", int64(len(cuts)))
	defer msp.End()
	sc := cm.sc
	for _, cut := range cuts {
		// Cut-enumeration boundary: a cancelled run stops before matching
		// the next cluster. cm.stop carries a cancellation observed by the
		// binding-search hot loop below.
		if cm.stop != nil {
			return cm.stop
		}
		if err := cm.m.pollCtx(); err != nil {
			return err
		}
		cm.m.stats.ClustersEnumerated++
		fn, varNodes := cm.clusterFunction(id, cut.nodes)
		nvars := fn.NumVars()
		cm.m.met.clusterLeaves.Observe(float64(nvars))
		if nvars > truthtab.MaxVars {
			continue
		}
		// The cluster's signature vector is computed once per cut with the
		// word-parallel kernels and shared across both phases and every
		// candidate cell; the negative-phase vector is derived arithmetically
		// without touching the truth table. All four live in per-cut scratch
		// buffers (valid until the next cut — exactly their use), and the
		// cached hazard-key state resets with the cut.
		if err := truthtab.FromExprInto(fn, &sc.ttPos); err != nil {
			continue
		}
		sc.ttPos.SigVecInto(&sc.sigPos)
		sc.mc.beginCut()
		// One probe of the library's signature-keyed match index serves both
		// phases (the key is output-phase-invariant), and only cells the key
		// proves compatible are matched.
		sc.keyBuf = sc.sigPos.AppendCanonKey(sc.keyBuf[:0])
		cands := cm.m.midx.Candidates(sc.keyBuf)
		cm.m.stats.IndexProbes++
		cm.m.stats.IndexSkippedCells += cm.m.midx.CellsWithPins(nvars) - len(cands)
		if len(cands) == 0 {
			continue
		}
		sc.ttPos.NotInto(&sc.ttNeg)
		sc.sigPos.ComplementInto(&sc.sigNeg)
		for phase := 0; phase < 2; phase++ {
			target, tsig := sc.ttPos, sc.sigPos
			if phase == phaseNeg {
				target, tsig = sc.ttNeg, sc.sigNeg
			}
			list, err := cm.m.midx.Matches(cm.m.opts.Ctx, cands, target, tsig, &sc.fill)
			if err != nil {
				return err
			}
			cm.replay(id, phase, fn, list, varNodes)
		}
	}
	// A cancellation observed inside the final cut's binding search must
	// surface here: the DP costs are incomplete, so the run must error
	// rather than emit from a partial table.
	if cm.stop != nil {
		return cm.stop
	}
	// Phase relaxation: realise one phase as the inverse of the other.
	for phase := 0; phase < 2; phase++ {
		other := 1 - phase
		c := cost{area: n.cost[other].area + cm.m.inv.Area, delay: n.cost[other].delay + cm.m.inv.Delay}
		if c.better(n.cost[phase], cm.m.opts.Objective) {
			n.cost[phase] = c
			n.choice[phase] = otherPhase
		}
	}
	if n.cost[phasePos].area >= inf && n.cost[phaseNeg].area >= inf {
		return fmt.Errorf("no match found for gate node %d (library %s may lack base gates)", id, cm.m.lib.Name)
	}
	return nil
}

// matchCtx is the binding visitor. Its per-binding state lives in the
// worker's scratch, rebound per replayed cell. It also caches the cluster
// hazard-set keys lazily per (cut, phase), so a replay formats each key
// once instead of once per hazard check.
type matchCtx struct {
	cm       *coneMapper
	n        *tnode
	phase    int
	fn       *bexpr.Function
	cell     *library.Cell
	mt       *match.Matcher
	filter   bool // the asynchronous hazard filter applies to cell
	varNodes []int
	rejected int
	maxB     int

	// Per-cut lazy hazard-key cache; beginCut invalidates it.
	fnStr  string
	keys   [2]string
	hasKey [2]bool
}

func (mc *matchCtx) beginCut() {
	mc.fnStr = ""
	mc.keys = [2]string{}
	mc.hasKey = [2]bool{}
}

func (mc *matchCtx) hazKey(phase int) string {
	if !mc.hasKey[phase] {
		if mc.fnStr == "" {
			mc.fnStr = mc.fn.Root.String()
		}
		mc.keys[phase] = fmt.Sprintf("%d|%s", phase, mc.fnStr)
		mc.hasKey[phase] = true
	}
	return mc.keys[phase]
}

// replay matches a cluster target against the library by replaying its
// memoized match list (library.MatchIndex.Matches) and updates the DP cost
// for (id, phase). Each cell's bindings reach Visit in search order, and a
// cell's replay stops where Visit stops it, exactly where the cell's
// permutation search would have stopped, so every choice and work counter
// is the search's. Output inversion is handled by the dual-phase DP
// (cost[x][neg] plus phase relaxation), so the lists hold only
// direct-output bindings: a binding with InvOut realises the *complement*
// of the target.
//
// A list holds one representative binding per pin-symmetry orbit —
// legitimate because orbit members agree on cost (the input-phase demand
// travels with the target variable) and on the hazard verdict (symmetry
// classes require hazard-set swap invariance), and the representative is
// the orbit's DFS-first member, so the strict `better` comparison picks
// the same choice as a search of every binding would.
func (cm *coneMapper) replay(id, phase int, fn *bexpr.Function, list library.MatchList, varNodes []int) {
	mc := &cm.sc.mc
	mc.cm, mc.n, mc.phase, mc.fn, mc.varNodes = cm, &cm.nodes[id], phase, fn, varNodes
	for i := 0; i < list.Cells(); i++ {
		ic, bindings := list.Cell(i)
		cm.m.stats.FindInvocations++
		if cm.stop != nil {
			continue
		}
		mc.cell, mc.mt = ic.Cell, ic.Matcher
		mc.filter = cm.m.opts.Mode == Async && ic.Cell.Hazardous()
		mc.rejected, mc.maxB = 0, cm.m.opts.MaxBindings
		for j := 0; j < bindings && mc.Visit(list.Binding(i, j)); j++ {
		}
	}
}

// Visit is the per-binding acceptance test. The binding's Perm aliases the
// library's immutable memo entry and varNodes aliases the scratch, so an
// *accepted* binding is stored as is and the variable nodes are copied
// into the node's per-cone choice slot (choices outlive the cut; they are
// read by solution encoding and serial emission).
func (mc *matchCtx) Visit(b hazard.Binding) bool {
	cm := mc.cm
	// Binding boundary: a hazardous cell can have many bindings (each with
	// a hazard analysis), so cancellation is polled here too —
	// stride-amortised, and latched in cm.stop so the surrounding loops
	// unwind at once.
	if err := cm.m.pollCtx(); err != nil {
		cm.stop = err
		return false
	}
	cm.m.stats.MatchesFound++
	cm.m.stats.SymmetryPruned += mc.mt.Orbit() - 1
	if mc.filter {
		cm.m.stats.HazardousMatches++
		if !cm.hazardSubsetOK(mc.fn, mc.phase, mc.cell, b, mc.hazKey(mc.phase)) {
			cm.m.stats.MatchesRejected++
			// MaxBindings bounds how many hazard-rejected bindings are
			// examined before giving up on a hazardous cell; accepted
			// bindings never count toward the limit. Every binding visited
			// here is its orbit's representative, so the limit counts
			// orbits: an unpruned search gives up at the same frontier by
			// counting only representatives (dp_ref_test.go).
			mc.rejected++
			return mc.rejected < mc.maxB
		}
	}
	// Cost: cell area plus the cost of each cluster input in the phase
	// the binding demands; arrival = worst input arrival + cell delay.
	var neg uint64 // cluster variables demanded in negative phase
	for pin, v := range b.Perm {
		neg |= (b.InvIn >> uint(pin) & 1) << uint(v)
	}
	c := cost{area: mc.cell.Area, delay: 0}
	for v, nodeID := range mc.varNodes {
		in := cm.nodes[nodeID].cost[neg>>uint(v)&1]
		c.area += in.area
		if in.delay > c.delay {
			c.delay = in.delay
		}
	}
	c.delay += mc.cell.Delay
	n := mc.n
	if c.better(n.cost[mc.phase], cm.m.opts.Objective) {
		n.cost[mc.phase] = c
		ch := n.choice[mc.phase]
		if ch == nil {
			ch = cm.newChoice()
			n.choice[mc.phase] = ch
		}
		ch.cell, ch.binding = mc.cell, b
		ch.varNode = append(ch.varNode[:0], mc.varNodes...)
	}
	return mc.rejected < mc.maxB
}

// newChoice returns a fresh match-choice slot from the cone's choice
// storage. The storage is allocated on first use with one slot per
// (internal node, phase), the most the DP can take, since a node's slot is
// overwritten in place on every later improvement.
func (cm *coneMapper) newChoice() *choice {
	width := min(cm.m.opts.MaxLeaves, truthtab.MaxVars)
	if len(cm.choices) == cap(cm.choices) {
		slots := 0
		for i := range cm.nodes {
			if cm.nodes[i].op != bexpr.OpVar {
				slots += 2
			}
		}
		cm.choices = make([]choice, 0, slots)
		cm.varNodes = make([]int, 0, slots*width)
	}
	k := len(cm.varNodes)
	cm.varNodes = cm.varNodes[:k+width]
	cm.choices = append(cm.choices, choice{varNode: cm.varNodes[k : k : k+width]})
	return &cm.choices[len(cm.choices)-1]
}

// hazardSubsetOK implements the paper's asyncmatchingroutine acceptance
// test: the hazards of the (hazardous) library element, translated through
// the pin binding, must be a subset of the hazards of the subnetwork being
// replaced. Conservative failures (analysis bounds exceeded) reject the
// match — safety over optimality.
func (cm *coneMapper) hazardSubsetOK(fn *bexpr.Function, phase int, cell *library.Cell, b hazard.Binding, key string) bool {
	cm.m.stats.HazardChecks++
	cellSet := cell.Hazards
	if cellSet == nil {
		return false // cell too wide for exact analysis: conservatively reject
	}
	clusterSet, ok := cm.hazCache[key]
	if ok {
		cm.m.stats.HazCacheLocalHits++
	} else {
		expr := fn.Root
		if phase == phaseNeg {
			expr = bexpr.Not(fn.Root.Clone())
		}
		cfn, err := bexpr.NewWithVars(expr, fn.Vars)
		if err != nil {
			cm.hazCache[key] = nil
			return false
		}
		// The analysis itself (not the per-cone memo hit above) is the
		// expensive step: trace it as a "hazard" span and feed the latency
		// histogram. Both are free when observability is off.
		sp := cm.m.opts.Tracer.StartSpanOn(cm.m.tid, "hazard")
		var t0 time.Time
		if cm.m.met.hazSeconds != nil {
			t0 = time.Now()
		}
		sharedHit := false
		if hc := cm.m.opts.HazardCache; hc != nil {
			// The shared cross-cone cache: one hazard.Analyze serves every
			// structurally equivalent cluster in the process, across cones,
			// workers and runs. Returned sets are fresh copies, translated
			// into this cluster's variable space, so the per-cone memo
			// never aliases another goroutine's data.
			set, hit := hc.Analyze(cfn)
			sharedHit = hit
			if hit {
				cm.m.stats.HazCacheHits++
			} else {
				cm.m.stats.HazCacheMisses++
			}
			clusterSet = set
		} else {
			cm.m.stats.HazCacheMisses++
			set, err := hazard.Analyze(cfn)
			if err != nil {
				set = nil
			}
			clusterSet = set
		}
		if cm.m.met.hazSeconds != nil {
			cm.m.met.hazSeconds.Observe(time.Since(t0).Seconds())
		}
		sp.SetInt("phase", int64(phase))
		sp.SetInt("vars", int64(fn.NumVars()))
		if sharedHit {
			sp.SetInt("cache_hit", 1)
		} else {
			sp.SetInt("cache_hit", 0)
		}
		if clusterSet == nil {
			sp.SetInt("infeasible", 1)
		}
		sp.End()
		cm.hazCache[key] = clusterSet
	}
	if clusterSet == nil {
		return false
	}
	// Translate the cell's hazards through the binding and test the subset,
	// fused so no translated set is materialised per binding. Hazard
	// don't-cares: bursts wider than MaxBurst never occur, so the cell's
	// hazards on those transitions are harmless.
	return cellSet.TranslatedSubsetOf(b, cm.m.opts.MaxBurst, clusterSet)
}

// emitRoot realises the cone root in positive phase under its final name.
func (cm *coneMapper) emitRoot(root int) error {
	n := &cm.nodes[root]
	if n.op == bexpr.OpVar {
		// Alias cone (buffer): drive the root name from the leaf signal.
		if cm.m.bufCell == nil {
			return fmt.Errorf("library %s has no buffer cell for alias cone %s", cm.m.lib.Name, cm.cone.Root)
		}
		_, err := cm.m.netlist.AddGate(cm.m.bufCell, []string{n.signal}, cm.cone.Root)
		return err
	}
	sig, err := cm.emit(root, phasePos, cm.cone.Root)
	if err != nil {
		return err
	}
	if sig != cm.cone.Root {
		return fmt.Errorf("internal: root emitted as %q, want %q", sig, cm.cone.Root)
	}
	return nil
}

// emit realises node id in the given phase and returns the carrying signal
// name. When outName is non-empty the final gate is forced to drive that
// signal.
func (cm *coneMapper) emit(id, phase int, outName string) (string, error) {
	if outName == "" {
		if sig, ok := cm.emitted[[2]int{id, phase}]; ok {
			return sig, nil
		}
	}
	n := &cm.nodes[id]
	if n.op == bexpr.OpVar {
		if phase == phasePos {
			return n.signal, nil
		}
		return cm.m.invertSignal(n.signal)
	}
	ch := n.choice[phase]
	if ch == nil {
		return "", fmt.Errorf("internal: no choice for node %d phase %d", id, phase)
	}
	var sig string
	if ch.fromOtherPhase {
		inner, err := cm.emit(id, 1-phase, "")
		if err != nil {
			return "", err
		}
		if outName == "" {
			return cm.m.invertSignal(inner)
		}
		if _, err := cm.m.netlist.AddGate(cm.m.inv, []string{inner}, outName); err != nil {
			return "", err
		}
		sig = outName
	} else {
		// Realise each cluster input in the demanded phase, then the cell.
		pins := make([]string, len(ch.binding.Perm))
		for pin, v := range ch.binding.Perm {
			ph := phasePos
			if ch.binding.InvIn&(1<<uint(pin)) != 0 {
				ph = phaseNeg
			}
			s, err := cm.emit(ch.varNode[v], ph, "")
			if err != nil {
				return "", err
			}
			pins[pin] = s
		}
		sig = outName
		if sig == "" {
			sig = cm.freshMatchSignal()
		}
		if _, err := cm.m.netlist.AddGate(ch.cell, pins, sig); err != nil {
			return "", err
		}
	}
	if outName == "" {
		cm.emitted[[2]int{id, phase}] = sig
	}
	return sig, nil
}

// freshMatchSignal returns the next free generated name for an internal
// match output of this cone. sanitize can map distinct cone roots (e.g.
// "a.b" and "a-b") to the same string, and matCount is per-cone, so the
// raw "<root>_m<n>" scheme could hand two cones the same signal; names
// are therefore checked against everything already driven and against the
// reserved set of original design signals, which also prevents a
// generated name from shadowing a design signal emitted later. Emission
// is serial and cone-ordered, so the outcome is deterministic.
func (cm *coneMapper) freshMatchSignal() string {
	base := sanitize(cm.cone.Root)
	for {
		cm.matCount++
		sig := fmt.Sprintf("%s_m%d", base, cm.matCount)
		if !cm.m.netlist.Driven(sig) && !cm.m.reserved[sig] {
			return sig
		}
	}
}

// invertSignal returns (creating on demand) the inverter-driven complement
// of a signal. Inverters are shared across cones; generated names avoid
// collisions with signals already driven and with every original design
// signal — even ones not yet emitted, so a design node literally named
// "<sig>_bar" can still be emitted later under its own name.
func (m *mapper) invertSignal(sig string) (string, error) {
	if m.invSignals == nil {
		m.invSignals = make(map[string]string)
	}
	if name, ok := m.invSignals[sig]; ok {
		return name, nil
	}
	name := negName(sig)
	for i := 2; m.netlist.Driven(name) || m.reserved[name]; i++ {
		name = fmt.Sprintf("%s%d", negName(sig), i)
	}
	if _, err := m.netlist.AddGate(m.inv, []string{sig}, name); err != nil {
		return "", err
	}
	m.invSignals[sig] = name
	return name, nil
}
