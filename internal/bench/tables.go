package bench

import (
	"fmt"
	"strings"
	"time"

	"gfmap/internal/core"
	"gfmap/internal/hazard"
	"gfmap/internal/library"
	"gfmap/internal/network"
)

// Table1Row is one row of the library hazard census (paper Table 1).
type Table1Row struct {
	Library   string
	Families  []string
	Hazardous int
	Total     int
	Percent   int
}

// Table1 reproduces the paper's Table 1: the hazardous elements of each
// library.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range library.BuiltinNames {
		lib, err := library.Get(name)
		if err != nil {
			return nil, err
		}
		c := lib.Census()
		rows = append(rows, Table1Row{
			Library:   name,
			Families:  c.Families,
			Hazardous: c.Hazardous,
			Total:     c.Total,
			Percent:   c.PercentHazardous(),
		})
	}
	return rows, nil
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Libraries and their hazardous elements\n")
	fmt.Fprintf(&b, "%-8s %-18s %4s %6s %10s\n", "Library", "Hazardous", "#", "Total", "%Hazardous")
	for _, r := range rows {
		fams := strings.Join(r.Families, ",")
		if fams == "" {
			fams = "None"
		}
		fmt.Fprintf(&b, "%-8s %-18s %4d %6d %9d%%\n", r.Library, fams, r.Hazardous, r.Total, r.Percent)
	}
	return b.String()
}

// Table2Row is one row of the library-initialisation timing comparison.
type Table2Row struct {
	Library string
	Sync    time.Duration // build + truth tables (the synchronous mapper's init)
	Async   time.Duration // build + hazard annotation (the asynchronous init)
	// Procedures runs the paper's §4 procedures on every cell
	// (hazard.AnalyzeFunctionShared: compact records plus the exact set),
	// the analysis CERES ran when it loaded a library.
	Procedures time.Duration
	Elements   int
}

// Table2 reproduces the paper's Table 2: hazard-analysis run times during
// library initialisation. Each round times a fresh Build (the sync
// column), then a second fresh Build plus Annotate from its own start
// (the async column), then the §4 procedures on that annotated library's
// cells. Every column keeps the fastest of three rounds, so scheduler and
// GC noise cannot reorder the small timings, and the sync and async
// columns stay independent measurements.
func Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range library.BuiltinNames {
		r := Table2Row{Library: name}
		for i := 0; i < 3; i++ {
			start := time.Now()
			lib, err := library.Build(name)
			if err != nil {
				return nil, err
			}
			built := time.Since(start)

			start = time.Now()
			lib, err = library.Build(name)
			if err != nil {
				return nil, err
			}
			if err := lib.Annotate(); err != nil {
				return nil, err
			}
			annotated := time.Since(start)

			start = time.Now()
			for _, c := range lib.Cells {
				if _, err := hazard.AnalyzeFunctionShared(c.Fn, c.SharedMask()); err != nil {
					return nil, fmt.Errorf("library %s: cell %s: %w", name, c.Name, err)
				}
			}
			procedures := time.Since(start)
			if i == 0 || built < r.Sync {
				r.Sync = built
			}
			if i == 0 || annotated < r.Async {
				r.Async = annotated
			}
			if i == 0 || procedures < r.Procedures {
				r.Procedures = procedures
			}
			r.Elements = len(lib.Cells)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Hazard analysis run times for library initialisation\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %10s %12s %8s\n", "Library", "Sync", "Async", "Async/Sync", "§4 procs", "#Cells")
	for _, r := range rows {
		ratio := float64(r.Async) / float64(r.Sync)
		fmt.Fprintf(&b, "%-8s %12s %12s %9.1fx %12s %8d\n",
			r.Library, r.Sync.Round(time.Microsecond), r.Async.Round(time.Microsecond), ratio,
			r.Procedures.Round(time.Microsecond), r.Elements)
	}
	return b.String()
}

// Table3Row compares automatic and hand-mapped covers of one design.
type Table3Row struct {
	Design  string
	Library string
	How     string
	Area    float64
	Time    time.Duration
}

// handMap produces the "hand-mapped" reference: a careful but conservative
// gate-for-gate translation, modelled by running the mapper with unit
// clusters (every base gate becomes one cell). This is the translation a
// designer does by hand when avoiding hazards without tool support.
func handMap(net *network.Network, lib *library.Library) (*core.Result, error) {
	return core.Map(net, lib, core.Options{Mode: core.Async, MaxDepth: 1, MaxLeaves: 2})
}

// Table3 reproduces the paper's Table 3: automatically-mapped versus
// hand-mapped area on the two real controllers (SCSI on LSI, ABCS on GDT).
func Table3() ([]Table3Row, error) {
	var rows []Table3Row
	cases := []struct {
		design, lib string
		hand        bool
	}{
		{"scsi", "LSI9K", false}, // the paper's SCSI was never hand-mapped
		{"abcs", "GDT", true},
	}
	for _, c := range cases {
		d, err := DesignByName(c.design)
		if err != nil {
			return nil, err
		}
		lib, err := library.Get(c.lib)
		if err != nil {
			return nil, err
		}
		if c.hand {
			start := time.Now()
			hand, err := handMap(d.Net, lib)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table3Row{
				Design: c.design, Library: c.lib, How: "hand-mapped",
				Area: hand.Area, Time: time.Since(start),
			})
		} else {
			rows = append(rows, Table3Row{Design: c.design, Library: c.lib, How: "hand-mapped", Area: -1})
		}
		start := time.Now()
		auto, err := core.AsyncTmap(d.Net, lib, core.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Design: c.design, Library: c.lib, How: "async tmap",
			Area: auto.Area, Time: time.Since(start),
		})
	}
	return rows, nil
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: Automatically-mapped vs hand-mapped designs (area; depth of 5)\n")
	fmt.Fprintf(&b, "%-8s %-8s %-12s %8s %10s\n", "Design", "Library", "How Mapped", "Cost", "Time")
	for _, r := range rows {
		area := fmt.Sprintf("%.0f", r.Area)
		t := r.Time.Round(time.Millisecond).String()
		if r.Area < 0 {
			area, t = "-", "-"
		}
		fmt.Fprintf(&b, "%-8s %-8s %-12s %8s %10s\n", r.Design, r.Library, r.How, area, t)
	}
	return b.String()
}

// bestOf runs f reps times and returns the fastest wall-clock time.
func bestOf(reps int, f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(start); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// Table4Cell is one sync/async timing pair.
type Table4Cell struct {
	Sync  time.Duration
	Async time.Duration
}

// Table4Row is one design's run times across the four libraries.
type Table4Row struct {
	Design string
	Cells  map[string]Table4Cell
}

// Table4 reproduces the paper's Table 4: synchronous versus asynchronous
// mapper run times for the SCSI and ABCS designs across all four
// libraries.
func Table4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, designName := range []string{"scsi", "abcs"} {
		d, err := DesignByName(designName)
		if err != nil {
			return nil, err
		}
		row := Table4Row{Design: designName, Cells: map[string]Table4Cell{}}
		for _, libName := range library.BuiltinNames {
			lib, err := library.Get(libName)
			if err != nil {
				return nil, err
			}
			syncTime, err := bestOf(3, func() error {
				_, err := core.Tmap(d.Net, lib, core.Options{})
				return err
			})
			if err != nil {
				return nil, err
			}
			asyncTime, err := bestOf(3, func() error {
				_, err := core.AsyncTmap(d.Net, lib, core.Options{})
				return err
			})
			if err != nil {
				return nil, err
			}
			row.Cells[libName] = Table4Cell{Sync: syncTime, Async: asyncTime}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: Synchronous vs asynchronous mapper run times (depth of 5)\n")
	fmt.Fprintf(&b, "%-8s %-13s", "Design", "Mapper")
	for _, lib := range library.BuiltinNames {
		fmt.Fprintf(&b, " %10s", lib)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-13s", r.Design, "Synchronous")
		for _, lib := range library.BuiltinNames {
			fmt.Fprintf(&b, " %10s", r.Cells[lib].Sync.Round(time.Millisecond))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "%-8s %-13s", "", "Asynchronous")
		for _, lib := range library.BuiltinNames {
			fmt.Fprintf(&b, " %10s", r.Cells[lib].Async.Round(time.Millisecond))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table5Entry is one design×library mapping result.
type Table5Entry struct {
	CPU   time.Duration
	Delay float64
	Area  float64
}

// Table5Row is one design's results for the Actel and CMOS3 libraries.
type Table5Row struct {
	Design string
	Actel  Table5Entry
	CMOS3  Table5Entry
}

// Table5 reproduces the paper's Table 5: asynchronous mapping results for
// the eleven benchmark circuits on the Actel and CMOS3 libraries.
func Table5() ([]Table5Row, error) {
	ds, err := Designs()
	if err != nil {
		return nil, err
	}
	var rows []Table5Row
	for _, d := range ds {
		row := Table5Row{Design: d.Name}
		for _, libName := range []string{"Actel", "CMOS3"} {
			lib, err := library.Get(libName)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := core.AsyncTmap(d.Net, lib, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("bench: %s on %s: %w", d.Name, libName, err)
			}
			entry := Table5Entry{CPU: time.Since(start), Delay: res.Delay, Area: res.Area}
			if libName == "Actel" {
				row.Actel = entry
			} else {
				row.CMOS3 = entry
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5: Asynchronous mapper results (depth of 5)\n")
	fmt.Fprintf(&b, "%-13s | %10s %9s %8s | %10s %9s %8s\n",
		"Design", "Actel CPU", "Delay", "Area", "CMOS3 CPU", "Delay", "Area")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s | %10s %7.1fns %8.0f | %10s %7.1fns %8.0f\n",
			r.Design,
			r.Actel.CPU.Round(time.Millisecond), r.Actel.Delay, r.Actel.Area,
			r.CMOS3.CPU.Round(time.Millisecond), r.CMOS3.Delay, r.CMOS3.Area)
	}
	return b.String()
}
