package library

import (
	"testing"

	"gfmap/internal/hazard"
)

func fpTestLib(t *testing.T) *Library {
	t.Helper()
	l := New("fp-test")
	l.MustAdd("INV", "a'", 1)
	l.MustAdd("NAND2", "(ab)'", 1)
	l.MustAdd("AND2", "ab", 1.5)
	l.MustAdd("AO21", "ab+c", 2)
	return l
}

// TestFingerprintStable: the same construction yields the same
// fingerprint, and annotation changes it (annotation changes matching
// behaviour, so pre- and post-annotation results must not share keys).
func TestFingerprintStable(t *testing.T) {
	a, b := fpTestLib(t), fpTestLib(t)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical libraries fingerprint differently")
	}
	pre := a.Fingerprint()
	if err := a.Annotate(); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == pre {
		t.Fatal("annotation did not change the fingerprint")
	}
	if err := b.Annotate(); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identically annotated libraries fingerprint differently")
	}
}

// TestFingerprintCoversMutations is the stale-cache regression test: every
// option-relevant cell field — including delay and the hazard annotation,
// which a name/area-only fingerprint would miss — must perturb the digest,
// so a mutated library can never address the old library's entries.
func TestFingerprintCoversMutations(t *testing.T) {
	base := fpTestLib(t)
	if err := base.Annotate(); err != nil {
		t.Fatal(err)
	}
	baseFP := base.Fingerprint()

	mutations := []struct {
		name string
		mut  func(l *Library)
	}{
		{"cell name", func(l *Library) { l.Cells[1].Name = "NAND2X" }},
		{"area", func(l *Library) { l.Cells[1].Area += 0.5 }},
		{"delay", func(l *Library) { l.Cells[1].Delay += 0.1 }},
		{"shared pins", func(l *Library) { l.Cells[3].SharedPins = []string{"a"} }},
		{"library name", func(l *Library) { l.Name = "other" }},
		{"hazard annotation", func(l *Library) {
			// Hand-edit one cell's hazard set: add a spurious static-1
			// transition. Counts stay similar; the transition content must
			// still be covered.
			l.Cells[3].Hazards.Static1[hazard.Transition{From: 0, To: 3}] = struct{}{}
		}},
		{"hazard annotation dropped", func(l *Library) {
			l.Cells[3].Hazards = nil
		}},
		{"extra cell", func(l *Library) { l.MustAdd("OR2", "a+b", 1) }},
	}
	for _, m := range mutations {
		l := fpTestLib(t)
		if err := l.Annotate(); err != nil {
			t.Fatal(err)
		}
		m.mut(l)
		if l.Fingerprint() == baseFP {
			t.Errorf("mutating %s did not change the fingerprint", m.name)
		}
	}
}

// TestFingerprintNotMemoized: an in-place mutation after a Fingerprint
// call must be observed by the next call.
func TestFingerprintNotMemoized(t *testing.T) {
	l := fpTestLib(t)
	fp1 := l.Fingerprint()
	l.Cells[0].Delay = 99
	if l.Fingerprint() == fp1 {
		t.Fatal("fingerprint memoized across a field mutation")
	}
}

// TestBuiltinFingerprintsPinned pins the annotated built-in libraries'
// fingerprints. They key every persistent mapstore entry, so a change in
// how annotation is computed that left a hazard set, or anything else
// the digest covers, different would silently turn existing stores cold.
func TestBuiltinFingerprintsPinned(t *testing.T) {
	want := map[string]string{
		"LSI9K":     "8d1c87bafc6cf175b4f8093dee9b7d0163bd11f559230142c1df3f842e086160",
		"CMOS3":     "350935f3301eada68936cd862c1ffd9af25ab4b9a3cb64b7b9ea2e8df361ee9f",
		"GDT":       "61bd07183df50668db42d663080a667753c1285c88b0b3c47c64280037ac4f86",
		"Actel":     "6938da60f3454380490782631862df407a83154c09c8f37e4007a590f3be2b9c",
		"ActelAct2": "459ce8c2b41fccc3ac9d0fbe77fff53f1ebc00398a9ebd329d67035e15637331",
	}
	for _, name := range ExtendedNames {
		l, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Fingerprint(); got != want[name] {
			t.Errorf("%s fingerprint %s, want %s", name, got, want[name])
		}
	}
}

// BenchmarkFingerprint times the digest every Map call takes of its
// library, on the annotated built-ins.
func BenchmarkFingerprint(b *testing.B) {
	for _, name := range BuiltinNames {
		l, err := Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = l.Fingerprint()
			}
		})
	}
}
