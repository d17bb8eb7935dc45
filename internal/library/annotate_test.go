package library

import (
	"reflect"
	"testing"

	"gfmap/internal/bexpr"
	"gfmap/internal/hazard"
	"gfmap/internal/truthtab"
)

// checkPerCellSets asserts what Annotate promises although it analyses
// each structure once: every cell's Hazards equals a fresh AnalyzeShared
// of that cell alone, and no two cells share a Set or any of its maps.
func checkPerCellSets(t *testing.T, l *Library) {
	t.Helper()
	owner := map[uintptr]string{}
	for _, c := range l.Cells {
		want, err := hazard.AnalyzeShared(c.Fn, c.SharedMask())
		if err != nil {
			t.Fatalf("%s: cell %s: %v", l.Name, c.Name, err)
		}
		got := c.Hazards
		if got == nil || got.N != want.N || !got.Equal(want) {
			t.Errorf("%s: cell %s: annotated %v, fresh analysis %v", l.Name, c.Name, got, want)
			continue
		}
		for _, p := range []uintptr{
			reflect.ValueOf(got).Pointer(),
			reflect.ValueOf(got.Static1).Pointer(),
			reflect.ValueOf(got.Static0).Pointer(),
			reflect.ValueOf(got.Dynamic).Pointer(),
		} {
			if other, dup := owner[p]; dup {
				t.Errorf("%s: cells %s and %s share hazard-set storage", l.Name, other, c.Name)
			}
			owner[p] = c.Name
		}
	}
}

func TestAnnotateBuiltinsMatchPerCellAnalysis(t *testing.T) {
	for _, name := range ExtendedNames {
		l, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Annotate(); err != nil {
			t.Fatal(err)
		}
		checkPerCellSets(t, l)
	}
}

// A complemented cell listed before its plain twin is the one analysed;
// the twin's set comes through the inverted-output rule, which must swap
// static-1 and static-0 and the dynamic endpoints.
func TestAnnotateComplementedTwinFirst(t *testing.T) {
	l := New("twins")
	muxi := l.MustAdd("MUXI", "(s'*a + s*b)'", 1)
	mux := l.MustAdd("MUX", "s'*a + s*b", 1)
	aoi := l.MustAdd("AOI1", "(c + c'*a*b)'", 1)
	ao := l.MustAdd("AO1", "c + c'*a*b", 1)
	for _, pair := range [][2]*Cell{{muxi, mux}, {aoi, ao}} {
		ki, inv, ok := pair[0].structureKey()
		kp, plain, okp := pair[1].structureKey()
		if !ok || !okp || ki != kp || !inv || plain {
			t.Fatalf("%s/%s: keys %q (inv %v) and %q (inv %v)", pair[0].Name, pair[1].Name, ki, inv, kp, plain)
		}
	}
	if err := l.Annotate(); err != nil {
		t.Fatal(err)
	}
	checkPerCellSets(t, l)
	if mux.Hazards.CountKind(hazard.KindStatic1) == 0 {
		t.Fatal("the plain mux must carry its static-1 hazard")
	}
	if !reflect.DeepEqual(mux.Hazards.Static1, muxi.Hazards.Static0) {
		t.Errorf("MUX static-1 %v, MUXI static-0 %v", mux.Hazards.Static1, muxi.Hazards.Static0)
	}
}

// Shared pins change the hazard model, so two cells with one BFF but
// different SharedPins are two structures; so is a cell whose pin order
// is not its BFF's first-appearance order, which is analysed on its own.
func TestAnnotateSameBFFDifferentStructure(t *testing.T) {
	l := New("shared")
	mux := l.MustAdd("MUX", "s'*a + s*b", 1)
	pass := l.MustAdd("MUXP", "s'*a + s*b", 1)
	pass.SharedPins = []string{"s"}
	fn, err := bexpr.NewWithVars(bexpr.MustParse("s'*a + s*b").Root, []string{"a", "b", "s"})
	if err != nil {
		t.Fatal(err)
	}
	tt, err := truthtab.FromExpr(fn)
	if err != nil {
		t.Fatal(err)
	}
	reordered := &Cell{Name: "MUXR", Fn: fn, Area: 5, Delay: 1, TT: tt}
	l.Cells = append(l.Cells, reordered)
	l.byName[reordered.Name] = reordered

	km, _, _ := mux.structureKey()
	kp, _, _ := pass.structureKey()
	if km == kp {
		t.Fatalf("MUX and MUXP share the key %q", km)
	}
	if _, _, ok := reordered.structureKey(); ok {
		t.Fatal("a cell whose pins are not in first-appearance order must have no key")
	}
	if err := l.Annotate(); err != nil {
		t.Fatal(err)
	}
	checkPerCellSets(t, l)
	if !mux.Hazardous() || pass.Hazardous() || !reordered.Hazardous() {
		t.Errorf("hazardous: MUX %v, MUXP %v, MUXR %v; want true, false, true",
			mux.Hazardous(), pass.Hazardous(), reordered.Hazardous())
	}
}
