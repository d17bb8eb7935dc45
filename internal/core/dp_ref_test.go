package core

// This file keeps the historical covering DP as a test oracle. It is the
// heap path that allocates per call: cut merges by concatenate + sort +
// dedupe, distinct inputs counted through string signal identities,
// cluster expressions built with bexpr's constructors, a fresh closure
// per binding search, and the three-step translate → burst filter →
// subset hazard test. Its matcher can also be the one from before the
// signature index and symmetry pruning, which searches every binding of
// every cell with the cluster's pin count. The production DP must make
// the same choice at every node (compareDP, TestDPMatchesReference).

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"gfmap/internal/bexpr"
	"gfmap/internal/hazard"
	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/match"
	"gfmap/internal/network"
	"gfmap/internal/truthtab"
)

// refMatcher is one cell's matchers for the reference DP: sym is the
// production matcher, with the cell's pin symmetry classes; full has no
// classes, so its search visits every binding of every orbit.
type refMatcher struct{ sym, full *match.Matcher }

// refMatch selects the reference DP's matcher. With probeAll, every cell
// of the cluster's pin count gets a search of every binding, and
// MaxBindings counts only orbit representatives among the rejected ones.
// Otherwise the index candidates get one binding per orbit, as in
// production, so every work counter must agree as well. Searches never
// nest, so they share one scratch.
type refMatch struct {
	probeAll bool
	cells    map[*library.Cell]refMatcher
	sc       match.Scratch
}

func newRefMatch(lib *library.Library, probeAll bool) *refMatch {
	rm := &refMatch{probeAll: probeAll, cells: make(map[*library.Cell]refMatcher, len(lib.Cells))}
	for _, c := range lib.Cells {
		rm.cells[c] = refMatcher{sym: symMatcher(lib, c), full: match.NewMatcher(c.TT)}
	}
	return rm
}

// symMatcher returns the library's indexed matcher for cell c, found in
// the index bucket of c's own signature key.
func symMatcher(lib *library.Library, c *library.Cell) *match.Matcher {
	for _, ic := range lib.MatchIndex().Candidates(c.TT.SigVec().AppendCanonKey(nil)) {
		if ic.Cell == c {
			return ic.Matcher
		}
	}
	panic("cell " + c.Name + " missing from its own index bucket")
}

// visitFunc adapts a closure to match.Visitor.
type visitFunc func(hazard.Binding) bool

func (f visitFunc) Visit(b hazard.Binding) bool { return f(b) }

// dpSlow is the reference dp.
func (cm *coneMapper) dpSlow(rm *refMatch) error {
	for id := range cm.nodes {
		n := &cm.nodes[id]
		if n.op == bexpr.OpVar {
			n.cost[phasePos] = cost{}
			n.cost[phaseNeg] = cost{area: cm.m.inv.Area, delay: cm.m.inv.Delay}
			continue
		}
		if err := cm.dpNodeSlow(id, rm); err != nil {
			return err
		}
	}
	return nil
}

func (cm *coneMapper) dpNodeSlow(id int, rm *refMatch) error {
	n := &cm.nodes[id]
	for _, cut := range cm.enumCutsSlow(id) {
		cm.m.stats.ClustersEnumerated++
		fn, varNodes, err := cm.clusterFunctionSlow(id, cut.nodes)
		if err != nil {
			return err
		}
		nvars := fn.NumVars()
		if nvars > truthtab.MaxVars {
			continue
		}
		ttPos, err := truthtab.FromExpr(fn)
		if err != nil {
			continue
		}
		ttNeg := ttPos.Not()
		sigPos := ttPos.SigVec()
		sigNeg := sigPos.Complement()
		var cands []*library.IndexedCell
		if !rm.probeAll {
			cands = cm.m.lib.MatchIndex().Candidates([]byte(sigPos.CanonKey()))
			cm.m.stats.IndexProbes++
			for _, c := range cm.m.lib.Cells {
				if c.NumPins() == nvars {
					cm.m.stats.IndexSkippedCells++
				}
			}
			cm.m.stats.IndexSkippedCells -= len(cands)
		}
		for phase := 0; phase < 2; phase++ {
			target, tsig := ttPos, sigPos
			if phase == phaseNeg {
				target, tsig = ttNeg, sigNeg
			}
			if rm.probeAll {
				for _, cell := range cm.m.lib.Cells {
					if cell.NumPins() != nvars {
						continue
					}
					cm.m.stats.FindInvocations++
					cm.tryCellSlow(id, phase, fn, target, tsig, cell, varNodes, rm)
				}
				continue
			}
			for _, ic := range cands {
				if ic.Matcher.Sig().Ones != tsig.Ones {
					continue
				}
				cm.m.stats.FindInvocations++
				cm.tryCellSlow(id, phase, fn, target, tsig, ic.Cell, varNodes, rm)
			}
		}
	}
	for phase := 0; phase < 2; phase++ {
		other := 1 - phase
		c := cost{area: n.cost[other].area + cm.m.inv.Area, delay: n.cost[other].delay + cm.m.inv.Delay}
		if c.better(n.cost[phase], cm.m.opts.Objective) {
			n.cost[phase] = c
			n.choice[phase] = &choice{fromOtherPhase: true}
		}
	}
	if n.cost[phasePos].area >= inf && n.cost[phaseNeg].area >= inf {
		return fmt.Errorf("no match found for gate node %d (library %s may lack base gates)", id, cm.m.lib.Name)
	}
	return nil
}

// enumCutsSlow is the reference enumCuts: every cross-product generation
// and every merged cut is a fresh heap slice.
func (cm *coneMapper) enumCutsSlow(id int) []cutEntry {
	if cm.cuts[id] != nil {
		return cm.cuts[id]
	}
	n := &cm.nodes[id]
	var out []cutEntry
	if n.op == bexpr.OpVar {
		cm.cuts[id] = []cutEntry{}
		return cm.cuts[id]
	}
	depthAdd := 1
	if n.op == bexpr.OpNot {
		depthAdd = 0
	}
	truncated := false
	combos := []cutEntry{{nodes: nil, depth: 0}}
	for _, kid := range n.kids {
		kidOpts := []cutEntry{{nodes: []int{kid}, depth: 0}}
		kidOpts = append(kidOpts, cm.enumCutsSlow(kid)...)
		var next []cutEntry
	combine:
		for _, base := range combos {
			for _, opt := range kidOpts {
				merged := mergeCut(base.nodes, opt.nodes)
				d := base.depth
				if opt.depth > d {
					d = opt.depth
				}
				next = append(next, cutEntry{nodes: merged, depth: d})
				if len(next) > 4*maxCutsPerNode {
					truncated = true
					break combine
				}
			}
		}
		combos = next
	}
	for ci, c := range combos {
		depth := c.depth + depthAdd
		if depth > cm.m.opts.MaxDepth {
			continue
		}
		if cm.distinctSignalsSlow(c.nodes) > cm.m.opts.MaxLeaves {
			continue
		}
		out = append(out, cutEntry{nodes: c.nodes, depth: depth})
		if len(out) >= maxCutsPerNode {
			if ci < len(combos)-1 {
				truncated = true
			}
			break
		}
	}
	if truncated {
		cm.m.stats.CutTruncations++
	}
	cm.cuts[id] = out
	return out
}

// mergeCut is the reference mergeCutInto.
func mergeCut(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	dst := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dst = append(dst, v)
		}
	}
	return dst
}

// signalOf returns a stable per-node signal identity: cone leaves share
// their signal name, internal nodes are their own signal.
func (cm *coneMapper) signalOf(id int) string {
	n := &cm.nodes[id]
	if n.op == bexpr.OpVar {
		return n.signal
	}
	return fmt.Sprintf("\x00n%d", id)
}

// distinctSignalsSlow is the reference distinctSignals.
func (cm *coneMapper) distinctSignalsSlow(nodes []int) int {
	seen := map[string]bool{}
	for _, id := range nodes {
		seen[cm.signalOf(id)] = true
	}
	return len(seen)
}

// clusterFunctionSlow is the reference clusterFunction, built with
// bexpr's constructors.
func (cm *coneMapper) clusterFunctionSlow(root int, cut []int) (*bexpr.Function, []int, error) {
	inCut := make(map[int]bool, len(cut))
	for _, id := range cut {
		inCut[id] = true
	}
	varName := make(map[string]string) // signal identity -> variable name
	varNodes := []int{}
	var names []string
	var build func(id int) *bexpr.Expr
	build = func(id int) *bexpr.Expr {
		if inCut[id] {
			sig := cm.signalOf(id)
			name, ok := varName[sig]
			if !ok {
				name = fmt.Sprintf("v%d", len(names))
				varName[sig] = name
				names = append(names, name)
				varNodes = append(varNodes, id)
			}
			return bexpr.Var(name)
		}
		n := &cm.nodes[id]
		switch n.op {
		case bexpr.OpVar:
			panic("core: leaf outside cut")
		case bexpr.OpNot:
			return bexpr.Not(build(n.kids[0]))
		case bexpr.OpAnd:
			kids := make([]*bexpr.Expr, len(n.kids))
			for i, k := range n.kids {
				kids[i] = build(k)
			}
			return bexpr.And(kids...)
		default:
			kids := make([]*bexpr.Expr, len(n.kids))
			for i, k := range n.kids {
				kids[i] = build(k)
			}
			return bexpr.Or(kids...)
		}
	}
	expr := build(root)
	fn, err := bexpr.NewWithVars(expr, names)
	if err != nil {
		return nil, nil, err
	}
	return fn, varNodes, nil
}

// tryCellSlow is the reference for matching one cell against a cluster
// target, which production replays from the library's match memo: one
// closure per search, run on the spot. With rm.probeAll it visits every
// member of every orbit, and counts a rejected binding toward MaxBindings
// only when it is its orbit's representative.
func (cm *coneMapper) tryCellSlow(id, phase int, fn *bexpr.Function, target truthtab.TT, tsig truthtab.SigVector, cell *library.Cell, varNodes []int, rm *refMatch) {
	n := &cm.nodes[id]
	mt, pruned := rm.cells[cell], !rm.probeAll
	rejected := 0
	maxB := cm.m.opts.MaxBindings
	key := ""
	demand := make([]int, len(varNodes))
	visit := func(b hazard.Binding) bool {
		cm.m.stats.MatchesFound++
		if pruned {
			cm.m.stats.SymmetryPruned += mt.sym.Orbit() - 1
		}
		if cm.m.opts.Mode == Async && cell.Hazardous() {
			cm.m.stats.HazardousMatches++
			if key == "" {
				key = fmt.Sprintf("%d|%s", phase, fn.Root.String())
			}
			if !cm.hazardSubsetOKSlow(fn, phase, cell, b, key) {
				cm.m.stats.MatchesRejected++
				if pruned || mt.sym.Representative(b.Perm) {
					rejected++
				}
				return rejected < maxB
			}
		}
		c := cost{area: cell.Area, delay: 0}
		clear(demand)
		for pin, v := range b.Perm {
			if b.InvIn&(1<<uint(pin)) != 0 {
				demand[v] = phaseNeg
			}
		}
		for v, nodeID := range varNodes {
			in := cm.nodes[nodeID].cost[demand[v]]
			c.area += in.area
			if in.delay > c.delay {
				c.delay = in.delay
			}
		}
		c.delay += cell.Delay
		if c.better(n.cost[phase], cm.m.opts.Objective) {
			b.Perm = append([]int(nil), b.Perm...)
			n.cost[phase] = c
			n.choice[phase] = &choice{
				cell:    cell,
				binding: b,
				varNode: append([]int(nil), varNodes...),
			}
		}
		return rejected < maxB
	}
	search := mt.full
	if pruned {
		search = mt.sym
	}
	search.FindScratch(target, tsig, visitFunc(visit), &rm.sc)
}

// hazardSubsetOKSlow is the reference hazardSubsetOK: the same per-cone
// memo and shared cache, then the cell's hazard set translated through
// the binding, filtered to MaxBurst and tested for the subset in three
// separate steps.
func (cm *coneMapper) hazardSubsetOKSlow(fn *bexpr.Function, phase int, cell *library.Cell, b hazard.Binding, key string) bool {
	cm.m.stats.HazardChecks++
	cellSet := cell.Hazards
	if cellSet == nil {
		return false
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
		if hc := cm.m.opts.HazardCache; hc != nil {
			set, hit := hc.Analyze(cfn)
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
		cm.hazCache[key] = clusterSet
	}
	if clusterSet == nil {
		return false
	}
	translated := cellSet.Translate(b, fn.NumVars())
	translated = translated.FilterMaxBurst(cm.m.opts.MaxBurst)
	return translated.SubsetOf(clusterSet)
}

// mapSlow maps net serially with the reference DP and returns the
// netlist text and the run's statistics. Its mapper has no arena scratch,
// so it never touches the scratch pool.
func mapSlow(t testing.TB, net *network.Network, lib *library.Library, opts Options, probeAll bool) (string, Stats) {
	t.Helper()
	m, cones := newTestMapper(t, net, lib, opts, false)
	rm := newRefMatch(lib, probeAll)
	var cms []*coneMapper
	var roots []int
	for _, cone := range cones {
		cm, root := newConeMapper(t, m, cone)
		if err := cm.dpSlow(rm); err != nil {
			t.Fatalf("cone %s: %v", cone.Root, err)
		}
		cms, roots = append(cms, cm), append(roots, root)
	}
	for i, cm := range cms {
		if err := cm.emitRoot(roots[i]); err != nil {
			t.Fatalf("cone %s: %v", cm.cone.Root, err)
		}
	}
	m.stats.Cones = len(cones)
	return m.netlist.String(), m.stats
}

// mapEachCone maps net serially with the production DP, preparing every
// cone on its own rather than covering each distinct signature once and
// sharing it, and returns the netlist text and the run's statistics.
func mapEachCone(t testing.TB, net *network.Network, lib *library.Library, opts Options) (string, Stats) {
	t.Helper()
	m, cones := newTestMapper(t, net, lib, opts, true)
	var pcs []*preparedCone
	for _, cone := range cones {
		pc, err := m.prepareCone(cone, mapstore.ConeKey(cone.Expr))
		if err != nil {
			t.Fatalf("cone %s: %v", cone.Root, err)
		}
		pcs = append(pcs, pc)
	}
	for _, pc := range pcs {
		if err := m.emitCone(pc); err != nil {
			t.Fatalf("cone %s: %v", pc.cm.cone.Root, err)
		}
	}
	m.stats.Cones = len(cones)
	return m.netlist.String(), m.stats
}

// compareDP maps net cone by cone with the production DP and the
// reference DP side by side, the way a serial Map does, and reports every
// divergence through t: the cuts at each node, both phase costs, the
// choice per phase (cell, pin permutation, input inversions, cluster
// variable nodes), and the emitted netlist. The reference first runs with
// the production matcher, so Stats.Deterministic() must match as well.
// With probeAll it runs a second time with the matcher that searches every
// binding of every cell, where only the counters that precede matching
// must match. The production side must also reproduce Map. compareDP
// returns the production statistics and, with probeAll, the probe-all
// reference's.
func compareDP(t testing.TB, name string, net *network.Network, lib *library.Library, opts Options, probeAll bool) (prod, probed Stats) {
	t.Helper()
	type side struct {
		label string
		m     *mapper
		rm    *refMatch
		cms   []*coneMapper
	}
	mp, cones := newTestMapper(t, net, lib, opts, true)
	sides := []*side{{label: "reference", rm: newRefMatch(lib, false)}}
	if probeAll {
		sides = append(sides, &side{label: "probe-all reference", rm: newRefMatch(lib, true)})
	}
	for _, sd := range sides {
		sd.m, _ = newTestMapper(t, net, lib, opts, false)
	}
	var cps []*coneMapper
	var roots []int
	for _, cone := range cones {
		cp, root := newConeMapper(t, mp, cone)
		perr := cp.dp()
		// The next cone rewinds the arena that backs this cone's cuts.
		cp.sc = nil
		for _, sd := range sides {
			cr, _ := newConeMapper(t, sd.m, cone)
			if rerr := cr.dpSlow(sd.rm); fmt.Sprint(perr) != fmt.Sprint(rerr) {
				t.Errorf("%s: cone %s: DP error %v, %s %v", name, cone.Root, perr, sd.label, rerr)
				return mp.stats, probed
			}
			if d := diffSolved(cp, cr); perr == nil && d != "" {
				t.Errorf("%s: cone %s: %s: %s", name, cone.Root, sd.label, d)
				return mp.stats, probed
			}
			sd.cms = append(sd.cms, cr)
		}
		if perr != nil {
			return mp.stats, probed // every side failed alike: nothing to emit
		}
		cps, roots = append(cps, cp), append(roots, root)
	}
	emit := func(label string, m *mapper, cms []*coneMapper) string {
		for i, cm := range cms {
			if err := cm.emitRoot(roots[i]); err != nil {
				t.Fatalf("%s: cone %s: %s: %v", name, cm.cone.Root, label, err)
			}
		}
		m.stats.Cones = len(cones)
		return m.netlist.String()
	}
	nl := emit("production", mp, cps)
	for _, sd := range sides {
		if rnl := emit(sd.label, sd.m, sd.cms); rnl != nl {
			t.Errorf("%s: netlist differs from the %s:\n%s\nvs\n%s", name, sd.label, nl, rnl)
		}
	}
	if p, r := mp.stats.Deterministic(), sides[0].m.stats.Deterministic(); p != r {
		t.Errorf("%s: deterministic stats differ from the reference:\n%+v\nvs\n%+v", name, p, r)
	}
	if probeAll {
		probed = sides[1].m.stats
		if p, r := mp.stats, probed; p.Cones != r.Cones || p.ClustersEnumerated != r.ClustersEnumerated ||
			p.CutTruncations != r.CutTruncations {
			t.Errorf("%s: cut counters differ from the probe-all reference:\n%+v\nvs\n%+v", name, p, r)
		}
	}
	res, err := Map(net, lib, opts)
	if err != nil {
		t.Fatalf("%s: Map: %v", name, err)
	}
	if res.Netlist.String() != nl {
		t.Errorf("%s: cone-by-cone DP does not reproduce Map", name)
	}
	if p, r := mp.stats.Deterministic(), res.Stats.Deterministic(); p != r {
		t.Errorf("%s: cone-by-cone stats differ from Map:\n%+v\nvs\n%+v", name, p, r)
	}
	return mp.stats, probed
}

// diffSolved describes the first difference between two solved copies of
// one cone tree, or returns "".
func diffSolved(p, r *coneMapper) string {
	if len(p.nodes) != len(r.nodes) {
		return fmt.Sprintf("%d nodes, reference %d", len(p.nodes), len(r.nodes))
	}
	for id := range p.nodes {
		pc, rc := p.cuts[id], r.cuts[id]
		if len(pc) != len(rc) {
			return fmt.Sprintf("node %d: %d cuts, reference %d", id, len(pc), len(rc))
		}
		for k := range pc {
			if pc[k].depth != rc[k].depth || !reflect.DeepEqual(pc[k].nodes, rc[k].nodes) {
				return fmt.Sprintf("node %d cut %d: %v@%d, reference %v@%d",
					id, k, pc[k].nodes, pc[k].depth, rc[k].nodes, rc[k].depth)
			}
		}
		pn, rn := &p.nodes[id], &r.nodes[id]
		if pn.cost != rn.cost {
			return fmt.Sprintf("node %d: costs %+v, reference %+v", id, pn.cost, rn.cost)
		}
		for ph := 0; ph < 2; ph++ {
			a, b := pn.choice[ph], rn.choice[ph]
			switch {
			case (a == nil) != (b == nil):
				return fmt.Sprintf("node %d phase %d: choice %+v, reference %+v", id, ph, a, b)
			case a == nil:
			case a.fromOtherPhase != b.fromOtherPhase || a.cell != b.cell ||
				!reflect.DeepEqual(a.binding, b.binding) || !reflect.DeepEqual(a.varNode, b.varNode):
				return fmt.Sprintf("node %d phase %d: choice %s %+v %v, reference %s %+v %v", id, ph,
					cellName(a.cell), a.binding, a.varNode, cellName(b.cell), b.binding, b.varNode)
			}
		}
	}
	return ""
}

func cellName(c *library.Cell) string {
	if c == nil {
		return "<inverted other phase>"
	}
	return c.Name
}
