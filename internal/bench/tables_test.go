package bench

import (
	"strings"
	"testing"

	"gfmap/internal/core"
	"gfmap/internal/library"
)

// TestTable1Exact asserts the census reproduces the paper's Table 1
// numbers exactly.
func TestTable1Exact(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	want := []Table1Row{
		{Library: "LSI9K", Families: []string{"MUX"}, Hazardous: 12, Total: 86, Percent: 14},
		{Library: "CMOS3", Families: []string{"MUX"}, Hazardous: 1, Total: 30, Percent: 3},
		{Library: "GDT", Families: nil, Hazardous: 0, Total: 72, Percent: 0},
		{Library: "Actel", Families: []string{"AO", "AOI", "MX", "OA", "OAI"}, Hazardous: 24, Total: 84, Percent: 29},
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, w := range want {
		r := rows[i]
		if r.Library != w.Library || r.Hazardous != w.Hazardous || r.Total != w.Total || r.Percent != w.Percent {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
	}
}

// TestTable2Shape asserts the timing shape of Table 2: hazard annotation
// adds to initialisation everywhere, and the GDT library — with the
// biggest complex gates — takes by far the longest under the paper's §4
// procedures, as in the paper (16.7s vs 0.2–1.2s on a DEC 5000).
// Annotation itself skips GDT's read-once gates outright, so the GDT
// claim is checked on the procedures column.
func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing table skipped in -short mode")
	}
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	byLib := map[string]Table2Row{}
	for _, r := range rows {
		byLib[r.Library] = r
		if r.Async <= r.Sync {
			t.Errorf("%s: async init (%v) should exceed sync init (%v)", r.Library, r.Async, r.Sync)
		}
	}
	gdt := byLib["GDT"].Procedures
	for _, other := range []string{"LSI9K", "CMOS3", "Actel"} {
		if gdt <= byLib[other].Procedures {
			t.Errorf("GDT §4 procedures (%v) should dominate %s (%v)", gdt, other, byLib[other].Procedures)
		}
	}
}

// TestTable3Shape asserts the quality claim of Table 3: the automatic
// asynchronous cover is never worse than the careful gate-for-gate hand
// translation (the paper's automatic ABCS cover was 13% smaller than the
// hand-mapped one).
func TestTable3Shape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	var hand, auto float64
	for _, r := range rows {
		if r.Design != "abcs" {
			continue
		}
		switch r.How {
		case "hand-mapped":
			hand = r.Area
		case "async tmap":
			auto = r.Area
		}
	}
	if hand == 0 || auto == 0 {
		t.Fatalf("missing abcs rows: %+v", rows)
	}
	if auto > hand {
		t.Errorf("automatic cover (%.0f) should not exceed the hand cover (%.0f)", auto, hand)
	}
	if auto < 0.5*hand {
		t.Logf("note: automatic cover is %.0f%% of hand — larger gain than the paper's 13%%", 100*auto/hand)
	}
}

// TestTable5Shape asserts the structural claims of Table 5: the small
// controller cluster is far below the four large designs; within the large
// designs the paper's size ordering holds (abcs ≤ oscsi < scsi < dean);
// Actel delays dominate CMOS3 delays by roughly an order of magnitude; and
// CPU time grows with design size.
func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("mapping table skipped in -short mode")
	}
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table5Row{}
	for _, r := range rows {
		byName[r.Design] = r
		if r.Actel.Delay < 4*r.CMOS3.Delay {
			t.Errorf("%s: Actel delay %.1f should dominate CMOS3 delay %.1f", r.Design, r.Actel.Delay, r.CMOS3.Delay)
		}
		if r.Actel.Area <= 0 || r.CMOS3.Area <= 0 {
			t.Errorf("%s: degenerate areas %+v", r.Design, r)
		}
	}
	small := []string{"chu-ad-opt", "dme-fast-opt", "dme-fast", "dme-opt", "dme", "vanbek-opt"}
	large := []string{"abcs", "oscsi-ctrl", "scsi", "dean-ctrl"}
	for _, s := range small {
		for _, l := range large {
			if byName[s].Actel.Area >= byName[l].Actel.Area {
				t.Errorf("small design %s (%.0f) should be below large design %s (%.0f)",
					s, byName[s].Actel.Area, l, byName[l].Actel.Area)
			}
		}
	}
	if !(byName["abcs"].Actel.Area <= byName["oscsi-ctrl"].Actel.Area &&
		byName["oscsi-ctrl"].Actel.Area < byName["scsi"].Actel.Area &&
		byName["scsi"].Actel.Area < byName["dean-ctrl"].Actel.Area) {
		t.Errorf("large-design ordering violated: abcs %.0f, oscsi %.0f, scsi %.0f, dean %.0f",
			byName["abcs"].Actel.Area, byName["oscsi-ctrl"].Actel.Area,
			byName["scsi"].Actel.Area, byName["dean-ctrl"].Actel.Area)
	}
	if byName["dean-ctrl"].Actel.CPU < byName["dme"].Actel.CPU {
		t.Error("CPU time should grow with design size")
	}
	// Delay grows with the chained large designs.
	if byName["dean-ctrl"].Actel.Delay < 2*byName["dme"].Actel.Delay {
		t.Errorf("dean-ctrl delay %.1f should far exceed dme delay %.1f",
			byName["dean-ctrl"].Actel.Delay, byName["dme"].Actel.Delay)
	}
}

// TestBenchmarksMapHazardFreeEverywhere is the suite-level safety check:
// the asynchronous mapper maps the smaller benchmarks onto the hazardous
// Actel library without introducing a single hazard, verified per cone by
// the exact analyser.
func TestBenchmarksMapHazardFreeEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("verification sweep skipped in -short mode")
	}
	lib := library.MustGet("Actel")
	for _, name := range []string{"vanbek-opt", "dme", "dme-opt", "dme-fast", "chu-ad-opt", "pe-send-ifc"} {
		d, err := DesignByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.AsyncTmap(d.Net, lib, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := core.VerifyEquivalence(d.Net, res.Netlist); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		rep, err := core.VerifyHazardSafety(d.Net, res.Netlist)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Errorf("%s: %s: %v", name, rep, rep.Details)
		}
	}
}

// TestReplicateChaining checks the daisy-chain plumbing.
func TestReplicateChaining(t *testing.T) {
	d, err := DesignByName("scsi")
	if err != nil {
		t.Fatal(err)
	}
	// The scsi slice has 8 combinational inputs (3 machine inputs + 5
	// one-hot state bits). With 66 slices chained in groups of 11, every
	// non-leader slice's request input is driven by its predecessor, so
	// 66-6 = 60 inputs disappear.
	const perSlice, slices, groups = 8, 66, 6
	want := perSlice*slices - (slices - groups)
	if got := len(d.Net.Inputs); got != want {
		t.Errorf("chained scsi has %d inputs, want %d", got, want)
	}
	if err := d.Net.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFiguresGenerator: the printable figure regeneration runs and
// contains each figure's key computed fact.
func TestFiguresGenerator(t *testing.T) {
	text, err := Figures()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"uncovered transition region xyz",
		"repaired: w'yz + wxy + xyz (hazard-free: true)",
		"new hazards: 1", // the sync Figure 3 cover
		"new hazards: 0", // the async Figure 3 cover
		"(w + x)*y",
		"adjacency cube wy",
		"intersection w'xyz: |alpha| = 1, |beta| = 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("figures output missing %q:\n%s", want, text)
		}
	}
}

// TestAblations: the three ablation studies run and exhibit their headline
// shapes (depth saturates; the hazard filter never reduces area below
// sync; objectives stay functionally valid).
func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations skipped in -short mode")
	}
	depth, err := AblationDepth("abcs", "GDT")
	if err != nil {
		t.Fatal(err)
	}
	if len(depth) != 6 {
		t.Fatalf("depth rows = %d", len(depth))
	}
	if !(depth[0].Area > depth[2].Area) {
		t.Errorf("depth 1 (%.0f) should be worse than depth 3 (%.0f)", depth[0].Area, depth[2].Area)
	}
	for i := 3; i < len(depth); i++ {
		if depth[i].Area > depth[2].Area {
			t.Errorf("quality regressed at %s: %.0f > %.0f", depth[i].Config, depth[i].Area, depth[2].Area)
		}
	}

	filt, err := AblationFilter("scsi", "Actel")
	if err != nil {
		t.Fatal(err)
	}
	byCfg := map[string]AblationRow{}
	for _, r := range filt {
		byCfg[r.Config] = r
	}
	if byCfg["sync (no filter)"].Area > byCfg["async"].Area {
		t.Errorf("the filter can only cost area: sync %.0f vs async %.0f",
			byCfg["sync (no filter)"].Area, byCfg["async"].Area)
	}
	if byCfg["async"].Stats.MatchesRejected == 0 {
		t.Error("the Actel run must reject hazardous matches")
	}
	if byCfg["async burst<=1"].Area > byCfg["async"].Area {
		t.Error("don't-cares can only relax the filter")
	}

	obj, err := AblationObjective("dme", "Actel")
	if err != nil {
		t.Fatal(err)
	}
	if len(obj) != 2 {
		t.Fatalf("objective rows = %d", len(obj))
	}
	if obj[1].Delay > obj[0].Delay {
		t.Errorf("delay objective must not be slower: %.2f vs %.2f", obj[1].Delay, obj[0].Delay)
	}
	if got := FormatAblation("t", obj); !strings.Contains(got, "objective=delay") {
		t.Errorf("format: %s", got)
	}
}
