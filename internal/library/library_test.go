package library

import (
	"strings"
	"testing"
)

func TestAddAndLookup(t *testing.T) {
	l := New("test")
	c, err := l.Add("NAND2", "(a*b)'", 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPins() != 2 || c.Area != 2 || c.Delay != 0.7 {
		t.Errorf("cell fields wrong: %+v", c)
	}
	if l.Cell("NAND2") != c {
		t.Error("lookup failed")
	}
	if _, err := l.Add("NAND2", "(a*b)'", 0.7); err == nil {
		t.Error("duplicate cell should be rejected")
	}
	if _, err := l.Add("BAD", "1", 0.1); err == nil {
		t.Error("cell with no inputs should be rejected")
	}
}

func TestAnnotateIdempotent(t *testing.T) {
	l := New("t")
	l.MustAdd("MUX", "s'*a + s*b", 1)
	if err := l.Annotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Annotate(); err != nil {
		t.Fatal(err)
	}
	if !l.Cell("MUX").Hazardous() {
		t.Error("mux must be annotated hazardous")
	}
}

func TestMinInverter(t *testing.T) {
	l := MustGet("LSI9K")
	inv := l.MinInverter()
	if inv == nil {
		t.Fatal("LSI9K must have an inverter")
	}
	if inv.NumPins() != 1 {
		t.Errorf("inverter has %d pins", inv.NumPins())
	}
}

func TestFamilyOf(t *testing.T) {
	tests := map[string]string{
		"MUX21A": "MUX",
		"MX2A":   "MX",
		"AOI221": "AOI",
		"NAND2":  "NAND",
		"INV":    "INV",
		"inv":    "INV",
	}
	for in, want := range tests {
		if got := familyOf(in); got != want {
			t.Errorf("familyOf(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	for _, name := range BuiltinNames {
		orig, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		text := DumpString(orig)
		parsed, err := ParseString(text)
		if err != nil {
			t.Fatalf("%s: parse of dumped text: %v", name, err)
		}
		if parsed.Name != orig.Name || len(parsed.Cells) != len(orig.Cells) {
			t.Fatalf("%s: round trip lost cells: %d vs %d", name, len(parsed.Cells), len(orig.Cells))
		}
		for i, c := range orig.Cells {
			p := parsed.Cells[i]
			if p.Name != c.Name || p.Area != c.Area || p.Delay != c.Delay {
				t.Errorf("%s: cell %s metadata changed: %+v vs %+v", name, c.Name, p, c)
			}
			if !p.TT.Equal(c.TT) {
				t.Errorf("%s: cell %s function changed", name, c.Name)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"GATE X 1 ;",                    // missing fields
		"GATE X 1 zz (a*b)' ;",          // bad delay
		"FROB X ;",                      // unknown statement
		"GATE X 1 1 (a*b)'",             // unterminated
		"GATE X 1 1 (a ** b)' ;",        // bad expression
		"GATE X 1 1 a ; GATE X 1 1 a ;", // duplicate
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): want error", c)
		}
	}
}

func TestParseComments(t *testing.T) {
	l, err := ParseString(`
# a comment
LIBRARY tiny
GATE INV - 0.3 a' ;   # trailing comment
GATE AOI21 6 0.9
  (a*b + c)' ;
`)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "tiny" || len(l.Cells) != 2 {
		t.Fatalf("parsed %d cells in %q", len(l.Cells), l.Name)
	}
	if l.Cell("INV").Area != 1 {
		t.Errorf("default area = %g, want literal count 1", l.Cell("INV").Area)
	}
	if l.Cell("AOI21").Area != 6 {
		t.Errorf("explicit area = %g, want 6", l.Cell("AOI21").Area)
	}
}

// TestBuiltinDeterminism guards against accidental nondeterminism in the
// builders (map iteration etc.).
func TestBuiltinDeterminism(t *testing.T) {
	for _, name := range BuiltinNames {
		a, _ := Build(name)
		b, _ := Build(name)
		if DumpString(a) != DumpString(b) {
			t.Errorf("%s: builder is nondeterministic", name)
		}
	}
}

// TestActelMacroStructure spot-checks that the hazardous Actel macros carry
// the mux-tree reconvergence the paper attributes the hazards to, and that
// their functions are the intended simple gates.
func TestActelMacroStructure(t *testing.T) {
	l := MustGet("Actel")
	ao1 := l.Cell("AO1")
	if ao1 == nil {
		t.Fatal("AO1 missing")
	}
	if !ao1.Hazardous() {
		t.Error("AO1 must be hazardous")
	}
	// AO1 computes ab + c even though its structure is the mux expansion.
	fn := ao1.Fn
	for p := uint64(0); p < 8; p++ {
		a := fn.VarIndex("a")
		b := fn.VarIndex("b")
		c := fn.VarIndex("c")
		want := (p&(1<<uint(a)) != 0 && p&(1<<uint(b)) != 0) || p&(1<<uint(c)) != 0
		if fn.Eval(p) != want {
			t.Fatalf("AO1 function wrong at %03b", p)
		}
	}
	// The same function in the LSI library (complementary AO21) is clean.
	lsi := MustGet("LSI9K")
	if lsi.Cell("AO21A").Hazardous() {
		t.Error("complementary AO21 must be hazard-free")
	}
}

func TestGetCaches(t *testing.T) {
	a := MustGet("CMOS3")
	b := MustGet("CMOS3")
	if a != b {
		t.Error("Get should cache annotated libraries")
	}
	if !a.Annotated() {
		t.Error("cached library must be annotated")
	}
}

func TestDumpContainsAllCells(t *testing.T) {
	l, _ := Build("CMOS3")
	text := DumpString(l)
	for _, c := range l.Cells {
		if !strings.Contains(text, "GATE "+c.Name+" ") {
			t.Errorf("dump missing cell %s", c.Name)
		}
	}
}
