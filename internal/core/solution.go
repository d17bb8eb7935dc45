package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gfmap/internal/bexpr"
	"gfmap/internal/hazard"
)

// A cone solution is the serialized outcome of one cone's covering DP:
// the per-node, per-phase choices (which cell, under which pin binding,
// fed by which tree nodes — or an inverter off the opposite phase) plus
// the deterministic work counters the DP accumulated while solving.
//
// Choices are everything emission reads, and emission recomputes all
// naming from live netlist state, so replaying a solution yields a
// netlist byte-identical to re-running the DP. The counters are replayed
// into Stats on a hit so a warm run's Stats.Deterministic() view is
// exactly a cold run's — cache-hit paths must not fork the deterministic
// summary (they skip the work, not the accounting of what the work was).
//
// The payload lives in a mapstore whose records are checksummed, but a
// checksum only proves the bytes are what was written — not that what was
// written is sane for *this* cone. decode therefore validates structure
// exhaustively (cell exists, binding is a bijection, fed nodes precede
// the choice's node, no mutually-inverting phase pair, every choice
// reachable from the root exists) and a failure is surfaced as a miss,
// never as a panic or a wrong netlist.

// solutionVersion begins every encoded solution; bump on format change so
// old store entries decode-fail into misses instead of misbehaving.
const solutionVersion = 1

var errBadSolution = errors.New("core: invalid cone solution")

// statsDelta returns now − before on the per-cone counters, the ones a
// solution stores and replays.
func statsDelta(now, before Stats) Stats {
	var d Stats
	dc, nc, bc := d.Counts(), now.Counts(), before.Counts()
	for i, c := range dc {
		if WorkCounters[i].class == perCone {
			*c = *nc[i] - *bc[i]
		}
	}
	return d
}

// encodeSolution serializes the solved choices of this cone's tree along
// with the cone's per-cone counters, in WorkCounters order.
func (cm *coneMapper) encodeSolution(delta Stats) []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, solutionVersion)
	buf = binary.AppendUvarint(buf, uint64(len(cm.nodes)))
	for i, c := range delta.Counts() {
		if WorkCounters[i].class == perCone {
			buf = binary.AppendUvarint(buf, uint64(*c))
		}
	}
	for i := range cm.nodes {
		for phase := 0; phase < 2; phase++ {
			ch := cm.nodes[i].choice[phase]
			switch {
			case ch == nil:
				buf = append(buf, 0)
			case ch.fromOtherPhase:
				buf = append(buf, 1)
			default:
				buf = append(buf, 2)
				buf = binary.AppendUvarint(buf, uint64(len(ch.cell.Name)))
				buf = append(buf, ch.cell.Name...)
				buf = binary.AppendUvarint(buf, uint64(len(ch.binding.Perm)))
				for _, v := range ch.binding.Perm {
					buf = binary.AppendUvarint(buf, uint64(v))
				}
				buf = binary.AppendUvarint(buf, ch.binding.InvIn)
				if ch.binding.InvOut {
					buf = append(buf, 1)
				} else {
					buf = append(buf, 0)
				}
				buf = binary.AppendUvarint(buf, uint64(len(ch.varNode)))
				for _, id := range ch.varNode {
					buf = binary.AppendUvarint(buf, uint64(id))
				}
			}
		}
	}
	return buf
}

// solReader is a cursor over an encoded solution.
type solReader struct{ b []byte }

func (r *solReader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, errBadSolution
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *solReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errBadSolution
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *solReader) bounded(limit int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(limit) {
		return 0, errBadSolution
	}
	return int(v), nil
}

// applySolution decodes an encoded solution against this cone's freshly
// built tree, validates it exhaustively, and — only if everything checks
// out — installs the choices and replays the stats delta. On any error
// the cone mapper and stats are untouched, so the caller can fall back to
// solving from scratch.
func (cm *coneMapper) applySolution(root int, data []byte) error {
	r := &solReader{b: data}
	v, err := r.byte()
	if err != nil || v != solutionVersion {
		return errBadSolution
	}
	nodeCount, err := r.uvarint()
	if err != nil || nodeCount != uint64(len(cm.nodes)) {
		return errBadSolution
	}
	var delta Stats
	for i, c := range delta.Counts() {
		if WorkCounters[i].class != perCone {
			continue
		}
		u, err := r.uvarint()
		if err != nil || u > 1<<40 {
			return errBadSolution
		}
		*c = int(u)
	}
	choices := make([][2]*choice, len(cm.nodes))
	for i := range cm.nodes {
		leaf := cm.nodes[i].op == bexpr.OpVar
		for phase := 0; phase < 2; phase++ {
			tag, err := r.byte()
			if err != nil {
				return errBadSolution
			}
			switch tag {
			case 0:
			case 1:
				if leaf {
					return errBadSolution
				}
				choices[i][phase] = &choice{fromOtherPhase: true}
			case 2:
				if leaf {
					return errBadSolution
				}
				ch, err := cm.decodeMatch(r, i)
				if err != nil {
					return err
				}
				choices[i][phase] = ch
			default:
				return errBadSolution
			}
		}
		// A mutually-inverting phase pair would recurse forever in emit.
		if choices[i][0] != nil && choices[i][0].fromOtherPhase &&
			choices[i][1] != nil && choices[i][1].fromOtherPhase {
			return errBadSolution
		}
	}
	if len(r.b) != 0 {
		return errBadSolution
	}
	if err := validateReachable(cm.nodes, choices, root); err != nil {
		return err
	}
	for i := range cm.nodes {
		cm.nodes[i].choice = choices[i]
	}
	cm.m.stats.merge(delta)
	return nil
}

// decodeMatch reads one cell-match choice for tree node id, checking that
// the cell exists in the current library, the binding is a bijection of
// the right width, and every fed node precedes id (the tree is stored
// post-order children-first, so any valid feed satisfies this — and it is
// what makes emission's recursion well-founded).
func (cm *coneMapper) decodeMatch(r *solReader, id int) (*choice, error) {
	nameLen, err := r.bounded(256)
	if err != nil || nameLen > len(r.b) {
		return nil, errBadSolution
	}
	name := string(r.b[:nameLen])
	r.b = r.b[nameLen:]
	cell := cm.m.lib.Cell(name)
	if cell == nil {
		return nil, errBadSolution
	}
	nv := cell.NumPins()
	permLen, err := r.bounded(64)
	if err != nil || permLen != nv {
		return nil, errBadSolution
	}
	perm := make([]int, permLen)
	var seen uint64
	for i := range perm {
		v, err := r.bounded(nv - 1)
		if err != nil || seen&(1<<uint(v)) != 0 {
			return nil, errBadSolution
		}
		seen |= 1 << uint(v)
		perm[i] = v
	}
	invIn, err := r.uvarint()
	if err != nil || nv < 64 && invIn >= 1<<uint(nv) {
		return nil, errBadSolution
	}
	invOutB, err := r.byte()
	if err != nil || invOutB > 1 {
		return nil, errBadSolution
	}
	vnLen, err := r.bounded(64)
	if err != nil || vnLen != nv {
		return nil, errBadSolution
	}
	varNode := make([]int, vnLen)
	for i := range varNode {
		n, err := r.bounded(id - 1)
		if err != nil {
			return nil, errBadSolution
		}
		varNode[i] = n
	}
	return &choice{
		cell:    cell,
		binding: hazard.Binding{Perm: perm, InvIn: invIn, InvOut: invOutB == 1},
		varNode: varNode,
	}, nil
}

// validateReachable walks the choices exactly as emission will, verifying
// that every (node, phase) emission can reach has a choice (or is a
// leaf). Feeds strictly decrease the node id and phase flips are not
// mutual, so the walk — like emission — terminates.
func validateReachable(nodes []tnode, choices [][2]*choice, root int) error {
	var seen [2][]bool
	seen[0] = make([]bool, len(nodes))
	seen[1] = make([]bool, len(nodes))
	var walk func(id, phase int) error
	walk = func(id, phase int) error {
		if seen[phase][id] {
			return nil
		}
		seen[phase][id] = true
		if nodes[id].op == bexpr.OpVar {
			return nil
		}
		ch := choices[id][phase]
		if ch == nil {
			return errBadSolution
		}
		if ch.fromOtherPhase {
			return walk(id, 1-phase)
		}
		for pin, v := range ch.binding.Perm {
			ph := phasePos
			if ch.binding.InvIn&(1<<uint(pin)) != 0 {
				ph = phaseNeg
			}
			if err := walk(ch.varNode[v], ph); err != nil {
				return err
			}
		}
		return nil
	}
	if root < 0 || root >= len(nodes) {
		return fmt.Errorf("%w: bad root", errBadSolution)
	}
	return walk(root, phasePos)
}
