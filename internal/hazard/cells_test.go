package hazard_test

import (
	"fmt"
	"testing"

	"gfmap/internal/hazard"
	"gfmap/internal/library"
)

// TestAnalyzeMatchesReferenceOnLibraries runs Analyze and the every-pair
// reference over every cell of the built-in libraries, the Act2
// shared-select masks included: same set, kind by kind, or same error.
func TestAnalyzeMatchesReferenceOnLibraries(t *testing.T) {
	for _, name := range library.ExtendedNames {
		lib, err := library.Build(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range lib.Cells {
			got, gotErr := hazard.AnalyzeShared(c.Fn, c.SharedMask())
			want, wantErr := hazard.AnalyzeReference(c.Fn, c.SharedMask())
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s/%s: error %v, reference %v", name, c.Name, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			for _, k := range []hazard.Kind{hazard.KindStatic1, hazard.KindStatic0, hazard.KindDynamic} {
				if g, w := fmt.Sprint(got.Transitions(k)), fmt.Sprint(want.Transitions(k)); g != w {
					t.Errorf("%s/%s: %v hazards %s, reference %s", name, c.Name, k, g, w)
				}
			}
		}
	}
}
