package bench

import (
	"testing"

	"gfmap/internal/library"
)

// BenchmarkAnnotate measures the Table 2 workload: a fresh Build plus
// Annotate per library, the hazard-annotation cost every asyncmap exec
// and every asyncmapd boot pays before mapping.
func BenchmarkAnnotate(b *testing.B) {
	for _, name := range library.ExtendedNames {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l, err := library.Build(name)
				if err != nil {
					b.Fatal(err)
				}
				if err := l.Annotate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
