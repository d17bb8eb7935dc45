package bench

import (
	"fmt"
	"testing"

	"gfmap/internal/eqn"
	"gfmap/internal/network"
)

// scsiText is the eqn text of the scsi design replicated k times, the
// front end's scaling input.
func scsiText(tb testing.TB, k int) string {
	tb.Helper()
	d, err := DesignByName("scsi")
	if err != nil {
		tb.Fatal(err)
	}
	net, err := Replicate(fmt.Sprintf("scsi-x%d", k), d.Net, k, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return eqn.WriteString(net)
}

// frontEnd runs the mapper's front end: parse, decompose, partition.
func frontEnd(tb testing.TB, src string) {
	net, err := eqn.ParseString(src, "frontend")
	if err != nil {
		tb.Fatal(err)
	}
	dec, err := network.AsyncTechDecomp(net)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := network.Partition(dec); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkFrontEnd times parse → decompose → partition on scsi ×1, ×4
// and ×16; linear code keeps ns/op proportional to the factor.
func BenchmarkFrontEnd(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		src := scsiText(b, k)
		b.Run(fmt.Sprintf("x%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				frontEnd(b, src)
			}
		})
	}
}

// TestFrontEndAllocsLinear guards the front end's linearity: quadrupling
// the design may at most quintuple its allocations, so a per-node copy of
// anything that grows with the design fails here.
func TestFrontEndAllocsLinear(t *testing.T) {
	allocs := func(k int) float64 {
		src := scsiText(t, k)
		return testing.AllocsPerRun(2, func() { frontEnd(t, src) })
	}
	x4, x16 := allocs(4), allocs(16)
	if x16 > 5*x4 {
		t.Fatalf("front end allocates %.0f objects at x16 vs %.0f at x4; want at most 5x", x16, x4)
	}
}
