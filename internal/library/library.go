// Package library implements technology libraries for the hazard-aware
// mapper. Each cell carries its Boolean factored form, which — per §3.2.1
// of the paper — represents both the functionality and the structure of the
// element, and therefore determines its logic-hazard behaviour. When a
// library is read in by the asynchronous mapper, every cell is analysed and
// annotated with its hazard set; hazard-free cells are matched exactly as
// in the synchronous flow, hazardous ones go through the subset filter.
package library

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gfmap/internal/bexpr"
	"gfmap/internal/hazard"
	"gfmap/internal/match"
	"gfmap/internal/truthtab"
)

// Cell is one library element.
type Cell struct {
	// Name identifies the cell within its library.
	Name string
	// Fn is the Boolean factored form; Fn.Vars is the pin order.
	Fn *bexpr.Function
	// Area is the cell's area cost. The default unit is the number of
	// transistors in the pulldown network of a complementary CMOS gate,
	// i.e. the literal count of the BFF (the unit of the paper's Table 3);
	// libraries may override it (the Actel library counts modules).
	Area float64
	// Delay is the cell's propagation delay in nanoseconds.
	Delay float64
	// TT is the truth table over the pin order, built at load time.
	TT truthtab.TT

	// SharedPins lists input pins whose leaf occurrences ride one physical
	// wire — the pass-transistor select model for mux-tree FPGA cells
	// (Actel Act2, the paper's §6 future work). Empty for complementary
	// CMOS cells, where every leaf is an independent path.
	SharedPins []string

	// Hazards is the exact hazard set of the cell's structure, filled in by
	// Library.Annotate (the asynchronous mapper's extra initialisation
	// step). It is nil before annotation and for cells whose pin count
	// exceeds the exact-analysis bound.
	Hazards *hazard.Set
	// Report is the annotation's hazard report: just the exact Set for
	// cells within hazard.MaxExhaustiveVars pins, the paper's compact §4
	// records past it. Reports that print the records for a small cell
	// run hazard.AnalyzeFunctionShared themselves.
	Report *hazard.Report
}

// SharedMask returns the variable bitmask of the shared pins.
func (c *Cell) SharedMask() uint64 {
	var m uint64
	for _, p := range c.SharedPins {
		if i := c.Fn.VarIndex(p); i >= 0 {
			m |= 1 << uint(i)
		}
	}
	return m
}

// NumPins returns the number of input pins.
func (c *Cell) NumPins() int { return c.Fn.NumVars() }

// Hazardous reports whether the annotated cell has any logic hazard. It
// panics if the library has not been annotated.
func (c *Cell) Hazardous() bool {
	if c.Report == nil {
		panic(fmt.Sprintf("library: cell %s not annotated", c.Name))
	}
	return c.Report.HasHazards()
}

// Library is a collection of cells plus lookup indexes.
type Library struct {
	Name  string
	Cells []*Cell

	byName    map[string]*Cell
	annotated bool

	// mu guards midx, the lazily (re)built Boolean-match index.
	mu   sync.RWMutex
	midx *MatchIndex
}

// New creates an empty library.
func New(name string) *Library {
	return &Library{Name: name, byName: make(map[string]*Cell)}
}

// Add creates a cell from its BFF and appends it. The default area is the
// literal count; delay is the given value.
func (l *Library) Add(name string, bff string, delay float64) (*Cell, error) {
	if _, dup := l.byName[name]; dup {
		return nil, fmt.Errorf("library %s: duplicate cell %q", l.Name, name)
	}
	fn, err := bexpr.Parse(bff)
	if err != nil {
		return nil, fmt.Errorf("library %s: cell %q: %w", l.Name, name, err)
	}
	if fn.NumVars() == 0 {
		return nil, fmt.Errorf("library %s: cell %q has no inputs", l.Name, name)
	}
	tt, err := truthtab.FromExpr(fn)
	if err != nil {
		return nil, fmt.Errorf("library %s: cell %q: %w", l.Name, name, err)
	}
	// Default area: transistors in the pulldown network (the paper's
	// Table 3 unit). A complementary CMOS gate natively computes an
	// inverting function, so cells whose BFF is a complemented core (NAND,
	// NOR, AOI, OAI, INV) cost exactly their literal count; non-inverting
	// cells (AND, OR, AO, muxes, buffers) carry an output inverter stage —
	// one extra pulldown transistor.
	area := float64(fn.Root.NumLiterals())
	if fn.Root.Op != bexpr.OpNot {
		area++
	}
	c := &Cell{
		Name:  name,
		Fn:    fn,
		Area:  area,
		Delay: delay,
		TT:    tt,
	}
	l.Cells = append(l.Cells, c)
	l.byName[name] = c
	return c, nil
}

// MustAdd is Add that panics on error; used by the built-in library
// builders, whose cells are static data.
func (l *Library) MustAdd(name, bff string, delay float64) *Cell {
	c, err := l.Add(name, bff, delay)
	if err != nil {
		panic(err)
	}
	return c
}

// Cell returns a cell by name, or nil.
func (l *Library) Cell(name string) *Cell { return l.byName[name] }

// Annotated reports whether hazard annotation has run.
func (l *Library) Annotated() bool { return l.annotated }

// Annotate computes every cell's hazard set — the additional
// initialisation work of the asynchronous mapper measured in Table 2 of
// the paper. Within the exact-analysis bound only the Set the matching
// filter reads is computed; past it the compact §4 records decide
// whether the cell is hazardous. The exact analysis runs once per
// distinct cell structure (exactHazards): every other cell with that
// structure gets its own translated copy of the set, so no two cells share
// a Set. It is idempotent.
func (l *Library) Annotate() error {
	if l.annotated {
		return nil
	}
	analysed := make(map[string]structure)
	for _, c := range l.Cells {
		rep := &hazard.Report{}
		var err error
		if c.NumPins() <= hazard.MaxExhaustiveVars {
			rep.Set, err = c.exactHazards(analysed)
		} else {
			rep, err = hazard.AnalyzeFunctionShared(c.Fn, c.SharedMask())
		}
		if err != nil {
			return fmt.Errorf("library %s: cell %s: %w", l.Name, c.Name, err)
		}
		c.Report = rep
		c.Hazards = rep.Set
	}
	l.annotated = true
	// Build the Boolean-match index eagerly: annotation is the asynchronous
	// mapper's initialisation step, and the index's symmetry classes depend
	// on the hazard sets just computed.
	l.MatchIndex()
	return nil
}

// structure is one exactly analysed cell structure: the hazard set of the
// first cell with it, and whether that cell's BFF carried the top-level
// complement its structureKey strips.
type structure struct {
	set *hazard.Set
	inv bool
}

// exactHazards returns the cell's exact hazard set. A read-once cell goes
// straight to the analysis, which returns at once. A cell that repeats a
// literal is looked up in analysed by its structureKey: the first cell
// with a key is analysed, and each later one gets its own copy of that
// set, through the inverted-output rule of Set.Translate when exactly one
// of the two carries the top-level complement.
func (c *Cell) exactHazards(analysed map[string]structure) (*hazard.Set, error) {
	n := c.NumPins()
	if c.Fn.Root.NumLiterals() <= n {
		return hazard.AnalyzeShared(c.Fn, c.SharedMask())
	}
	key, inv, ok := c.structureKey()
	if !ok {
		return hazard.AnalyzeShared(c.Fn, c.SharedMask())
	}
	if s, ok := analysed[key]; ok {
		return s.set.Translate(hazard.Binding{Perm: identityPerm(n), InvOut: s.inv != inv}, n), nil
	}
	set, err := hazard.AnalyzeShared(c.Fn, c.SharedMask())
	if err != nil {
		return nil, err
	}
	analysed[key] = structure{set: set, inv: inv}
	return set, nil
}

// structureKey returns the key of the cell's structure up to a top-level
// complement: Expr.AppendKey of the BFF with one top-level NOT removed,
// plus the shared-pin mask. inv reports whether the NOT was there. The
// key names each leaf by its first-appearance position, so it names it by
// pin index only when Fn.Vars is that order, as for cells built by Add;
// ok is false for any other cell.
func (c *Cell) structureKey() (key string, inv, ok bool) {
	root := c.Fn.Root
	if root.Op == bexpr.OpNot {
		root, inv = root.Kids[0], true
	}
	if !slices.Equal(root.CollectVars(nil), c.Fn.Vars) {
		return "", false, false
	}
	b, _ := root.AppendKey(nil)
	b = append(b, '/')
	b = strconv.AppendUint(b, c.SharedMask(), 16)
	return string(b), inv, true
}

// IndexedCell pairs a library cell with its prebuilt Boolean matcher —
// memoized signature vector plus pin symmetry classes.
type IndexedCell struct {
	Cell    *Cell
	Matcher *match.Matcher
}

// MatchIndex is the library's Boolean-match index. It buckets the cells by
// their phase-invariant signature key, so the covering DP probes only
// cells that can possibly match a cluster instead of every cell with the
// right pin count, and it carries the memo of match lists the DP replays
// (memo.go). cells and annotated record the library generation the index
// was built from; a rebuild starts a new index with an empty memo, so a
// memo never outlives the matchers its bindings came from.
type MatchIndex struct {
	cells     int
	annotated bool
	byPins    map[int]int
	buckets   map[string][]*IndexedCell // CanonKey -> cells, library order
	memo      matchMemo
}

// MatchIndex returns the match index, (re)building it when the library
// gained cells or annotation since the last build. The buckets are
// immutable once built and the memo is safe for concurrent use, so
// concurrent mappers share one index; a mapping run takes it once and
// keeps it for the whole run.
func (l *Library) MatchIndex() *MatchIndex {
	l.mu.RLock()
	idx := l.midx
	fresh := idx != nil && idx.cells == len(l.Cells) && idx.annotated == l.annotated
	l.mu.RUnlock()
	if fresh {
		return idx
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.midx != nil && l.midx.cells == len(l.Cells) && l.midx.annotated == l.annotated {
		return l.midx
	}
	idx = &MatchIndex{
		cells:     len(l.Cells),
		annotated: l.annotated,
		byPins:    make(map[int]int),
		buckets:   make(map[string][]*IndexedCell),
		memo:      matchMemo{budget: memoBudget},
	}
	for _, c := range l.Cells {
		ic := &IndexedCell{
			Cell:    c,
			Matcher: match.NewSymMatcher(c.TT, c.symClasses(l.annotated)),
		}
		idx.byPins[c.NumPins()]++
		key := ic.Matcher.Sig().CanonKey()
		idx.buckets[key] = append(idx.buckets[key], ic)
	}
	l.midx = idx
	return idx
}

// Candidates returns the indexed cells whose signature key
// (truthtab.SigVector.AppendCanonKey) equals key — the only cells that can
// match a cluster with that key, in any input permutation, input phase or
// output phase. Cells are returned in library order, so the covering DP
// visits the same matches in the same order as a probe of every cell
// would. The map probe converts the bytes in place, so the mapper's
// per-cut lookup allocates nothing. The returned slice is shared and must
// not be mutated.
func (x *MatchIndex) Candidates(key []byte) []*IndexedCell {
	return x.buckets[string(key)]
}

// CellsWithPins returns how many cells have the given input count.
func (x *MatchIndex) CellsWithPins(n int) int { return x.byPins[n] }

// symClasses partitions the cell's pins into symmetry classes: pins in one
// class are interchangeable without changing the cell's function or (for
// annotated hazardous cells) its hazard set, so the Boolean matcher may
// enumerate a single representative pin ordering per class. Each pin is
// checked against the representative of every open class; transpositions
// with the representative generate the full symmetric group on the class,
// so pairwise checks against the representative suffice.
func (c *Cell) symClasses(annotated bool) []int {
	n := c.NumPins()
	classOf := make([]int, n)
	var reps []int
	for i := 0; i < n; i++ {
		assigned := -1
		// Hazard sets are unknown for cells past the exact-analysis bound
		// (Hazards == nil after annotation): keep every pin in its own
		// class, conservatively.
		if !annotated || c.Hazards != nil {
			for ci, r := range reps {
				if !c.TT.SymmetricPair(r, i) {
					continue
				}
				if annotated && !c.hazardSwapInvariant(r, i) {
					continue
				}
				assigned = ci
				break
			}
		}
		if assigned < 0 {
			assigned = len(reps)
			reps = append(reps, i)
		}
		classOf[i] = assigned
	}
	return classOf
}

// hazardSwapInvariant reports whether exchanging pins u and v leaves the
// cell's hazard set unchanged. Only then are the pins interchangeable for
// the asynchronous matching filter: every binding in a symmetry orbit then
// translates the hazard set identically up to the orbit's own relabeling,
// so hazard acceptance is decided once per orbit.
func (c *Cell) hazardSwapInvariant(u, v int) bool {
	if c.Hazards.Empty() {
		return true
	}
	n := c.NumPins()
	perm := identityPerm(n)
	perm[u], perm[v] = v, u
	swapped := c.Hazards.Translate(hazard.Binding{Perm: perm}, n)
	return swapped.Equal(c.Hazards)
}

// identityPerm returns the identity pin permutation of n pins.
func identityPerm(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// HazardousCells returns the annotated cells that contain logic hazards,
// sorted by name.
func (l *Library) HazardousCells() []*Cell {
	var out []*Cell
	for _, c := range l.Cells {
		if c.Report != nil && c.Report.HasHazards() {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MinInverter returns the cheapest cell implementing an inverter, or nil.
func (l *Library) MinInverter() *Cell {
	var best *Cell
	inv, err := truthtab.FromExpr(bexpr.MustParse("a'"))
	if err != nil {
		panic(err)
	}
	for _, c := range l.Cells {
		if c.NumPins() != 1 || !c.TT.Equal(inv) {
			continue
		}
		if best == nil || c.Area < best.Area {
			best = c
		}
	}
	return best
}

// Census summarises the hazard annotation: total cells, hazardous cells
// and the families they belong to (by name prefix).
type Census struct {
	Library   string
	Total     int
	Hazardous int
	Families  []string
}

// Census computes the Table 1 row for the library; Annotate must have run.
func (l *Library) Census() Census {
	fam := map[string]bool{}
	c := Census{Library: l.Name, Total: len(l.Cells)}
	for _, cell := range l.HazardousCells() {
		c.Hazardous++
		fam[familyOf(cell.Name)] = true
	}
	for f := range fam {
		c.Families = append(c.Families, f)
	}
	sort.Strings(c.Families)
	return c
}

// familyOf extracts a cell's family as the leading letters before the
// first digit (MUX21A -> MUX, AOI221 -> AOI); names without digits are
// their own family.
func familyOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] >= '0' && name[i] <= '9' {
			return strings.ToUpper(name[:i])
		}
	}
	return strings.ToUpper(name)
}

// PercentHazardous returns the hazardous fraction in percent, rounded.
func (c Census) PercentHazardous() int {
	if c.Total == 0 {
		return 0
	}
	return int(float64(c.Hazardous)/float64(c.Total)*100 + 0.5)
}
