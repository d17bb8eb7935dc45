package core

import (
	"path/filepath"
	"testing"

	"gfmap/internal/library"
	"gfmap/internal/mapstore"
	"gfmap/internal/network"
)

const storeSrc = `
INPUT(a, b, c, d)
OUTPUT(f, g, h, k)
u = a*b + c;
f = u*d';
g = u + a'*d;
w = c*d + a;
h = w;
k = a'*b' + c*d';
`

func mapWith(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	net := parseNet(t, src, "storetest")
	lib := library.MustGet("LSI9K")
	res, err := Map(net, lib, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStoreWarmByteIdentity: a run against a cold store, a run against the
// warmed store, and a store-less run must produce byte-identical netlists
// and identical deterministic stats — the warm path replays the recorded
// work counters, it does not skip the accounting.
func TestStoreWarmByteIdentity(t *testing.T) {
	for _, mode := range []Mode{Sync, Async} {
		base := mapWith(t, storeSrc, Options{Mode: mode, Workers: 1})

		store, err := mapstore.Open(filepath.Join(t.TempDir(), "s.gfm"), mapstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold := mapWith(t, storeSrc, Options{Mode: mode, Workers: 1, Store: store})
		warm := mapWith(t, storeSrc, Options{Mode: mode, Workers: 1, Store: store})
		store.Close()

		if cold.Netlist.String() != base.Netlist.String() {
			t.Fatalf("%v: cold-store netlist differs from store-less run:\n%s\n---\n%s",
				mode, cold.Netlist, base.Netlist)
		}
		if warm.Netlist.String() != base.Netlist.String() {
			t.Fatalf("%v: warm-store netlist differs from store-less run:\n%s\n---\n%s",
				mode, warm.Netlist, base.Netlist)
		}
		// Structurally duplicate cones within one run hit the entries
		// their twins just wrote (storeSrc has two or(and,·) cones), so a
		// cold run splits between misses and intra-run hits; a warm run
		// hits on every cone.
		if cold.Stats.StoreHits+cold.Stats.StoreMisses != cold.Stats.Cones || cold.Stats.StoreMisses == 0 {
			t.Fatalf("%v: cold run hits=%d misses=%d cones=%d",
				mode, cold.Stats.StoreHits, cold.Stats.StoreMisses, cold.Stats.Cones)
		}
		if warm.Stats.StoreHits != warm.Stats.Cones || warm.Stats.StoreMisses != 0 {
			t.Fatalf("%v: warm run hits=%d misses=%d cones=%d",
				mode, warm.Stats.StoreHits, warm.Stats.StoreMisses, warm.Stats.Cones)
		}
		if base.Stats.Deterministic() != cold.Stats.Deterministic() {
			t.Fatalf("%v: cold-store deterministic stats fork:\n%+v\n---\n%+v",
				mode, base.Stats.Deterministic(), cold.Stats.Deterministic())
		}
		if base.Stats.Deterministic() != warm.Stats.Deterministic() {
			t.Fatalf("%v: warm-store deterministic stats fork:\n%+v\n---\n%+v",
				mode, base.Stats.Deterministic(), warm.Stats.Deterministic())
		}
	}
}

// TestStoreWarmAcrossReopen: entries must survive a store close/reopen —
// the restart scenario — and still produce a byte-identical netlist.
func TestStoreWarmAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gfm")
	store, err := mapstore.Open(path, mapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold := mapWith(t, storeSrc, Options{Mode: Async, Store: store})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := mapstore.Open(path, mapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	warm := mapWith(t, storeSrc, Options{Mode: Async, Store: store2})
	if warm.Netlist.String() != cold.Netlist.String() {
		t.Fatal("netlist differs across store reopen")
	}
	if warm.Stats.StoreHits == 0 {
		t.Fatal("no store hits after reopen")
	}
}

// TestStoreWorkersByteIdentity: the store under a parallel run — shadow
// mappers share the handle — must not change the result.
func TestStoreWorkersByteIdentity(t *testing.T) {
	base := mapWith(t, storeSrc, Options{Mode: Async, Workers: 1})
	store := mapstore.NewMemory(0)
	cold := mapWith(t, storeSrc, Options{Mode: Async, Workers: 4, Store: store})
	warm := mapWith(t, storeSrc, Options{Mode: Async, Workers: 4, Store: store})
	if cold.Netlist.String() != base.Netlist.String() || warm.Netlist.String() != base.Netlist.String() {
		t.Fatal("store under parallel mapping changed the netlist")
	}
	if warm.Stats.StoreHits == 0 {
		t.Fatal("warm parallel run recorded no hits")
	}
	if base.Stats.Deterministic() != warm.Stats.Deterministic() {
		t.Fatalf("parallel warm deterministic stats fork:\n%+v\n---\n%+v",
			base.Stats.Deterministic(), warm.Stats.Deterministic())
	}
}

// editedLib builds a fresh LSI9K with one cell's delay nudged — the
// satellite regression: a library edit between runs must yield a cold
// result, never a stale hit from entries keyed under the old library.
func editedLib(t *testing.T) *library.Library {
	t.Helper()
	lib, err := library.Build("LSI9K")
	if err != nil {
		t.Fatal(err)
	}
	lib.Cells[3].Delay += 0.25
	if err := lib.Annotate(); err != nil {
		t.Fatal(err)
	}
	return lib
}

// freshStoreHits maps src against a brand-new memory store and returns
// the intra-run hit count — the baseline hits caused purely by
// structurally duplicate cones, which any cold run exhibits.
func freshStoreHits(t *testing.T, src string, lib *library.Library, opts Options) int {
	t.Helper()
	o := opts
	o.Workers = 1
	o.Store = mapstore.NewMemory(0)
	net := parseNet(t, src, "storetest")
	res, err := Map(net, lib, o)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats.StoreHits
}

// The option hash is part of every store key. It must keep the exact
// strings earlier versions wrote, including the removed match-index
// switch, or their store entries go cold and are never compacted.
func TestOptionHashKeepsStoreKeys(t *testing.T) {
	for mode, want := range map[Mode]string{
		Async: "mode=1;obj=0;depth=5;leaves=6;bindings=32;burst=0;noindex=false",
		Sync:  "mode=0;obj=0;depth=5;leaves=6;bindings=32;burst=0;noindex=false",
	} {
		if got := optionHash(Options{Mode: mode}.withDefaults()); got != want {
			t.Errorf("optionHash(%v) = %q, want %q", mode, got, want)
		}
	}
}

func TestStoreLibraryEditIsCold(t *testing.T) {
	store := mapstore.NewMemory(0)
	net := parseNet(t, storeSrc, "storetest")
	if _, err := Map(net, library.MustGet("LSI9K"), Options{Mode: Async, Store: store}); err != nil {
		t.Fatal(err)
	}

	lib := editedLib(t)
	intra := freshStoreHits(t, storeSrc, lib, Options{Mode: Async})
	net2 := parseNet(t, storeSrc, "storetest")
	res, err := Map(net2, lib, Options{Mode: Async, Workers: 1, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	// Intra-run duplicate hits (under the NEW fingerprint) are fine; any
	// hit beyond that baseline would be a stale entry from the old
	// library leaking through.
	if res.Stats.StoreHits != intra {
		t.Fatalf("hits=%d after a library delay edit, want %d (intra-run only)",
			res.Stats.StoreHits, intra)
	}
	if res.Stats.StoreMisses != res.Stats.Cones-intra {
		t.Fatalf("misses=%d, want %d (all non-duplicate cones cold)",
			res.Stats.StoreMisses, res.Stats.Cones-intra)
	}

	// Same net, same (edited) library again: now it may hit — under the
	// *new* fingerprint.
	net3 := parseNet(t, storeSrc, "storetest")
	res2, err := Map(net3, lib, Options{Mode: Async, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.StoreHits != res2.Stats.Cones {
		t.Fatalf("edited-library entries not served: hits=%d cones=%d",
			res2.Stats.StoreHits, res2.Stats.Cones)
	}
	if res2.Netlist.String() != res.Netlist.String() {
		t.Fatal("warm edited-library netlist differs from its own cold run")
	}
}

// TestStoreOptionEditIsCold: semantically relevant options fork the key
// space; transparent ones share it.
func TestStoreOptionEditIsCold(t *testing.T) {
	lib := library.MustGet("LSI9K")
	store := mapstore.NewMemory(0)
	intra := freshStoreHits(t, storeSrc, lib, Options{Mode: Async})
	if r := mapWith(t, storeSrc, Options{Mode: Async, Workers: 1, Store: store}); r.Stats.StoreHits != intra {
		t.Fatalf("first run: hits=%d, want %d (intra-run only)", r.Stats.StoreHits, intra)
	}
	// MaxBurst changes the hazard filter: must be cold.
	intraB := freshStoreHits(t, storeSrc, lib, Options{Mode: Async, MaxBurst: 2})
	if r := mapWith(t, storeSrc, Options{Mode: Async, Workers: 1, Store: store, MaxBurst: 2}); r.Stats.StoreHits != intraB {
		t.Fatalf("MaxBurst change served %d hits, want %d (intra-run only)", r.Stats.StoreHits, intraB)
	}
	// Worker count is semantically transparent: must share entries.
	if r := mapWith(t, storeSrc, Options{Mode: Async, Store: store, Workers: 3}); r.Stats.StoreHits != r.Stats.Cones {
		t.Fatalf("transparent Workers option forked the key space: hits=%d cones=%d",
			r.Stats.StoreHits, r.Stats.Cones)
	}
}

// coneEntryKeys computes the store keys Map will use for every cone of
// the source — the test's window into the content-addressing scheme.
func coneEntryKeys(t *testing.T, src string, lib *library.Library, opts Options) []mapstore.Key {
	t.Helper()
	if err := lib.Annotate(); err != nil {
		t.Fatal(err)
	}
	net := parseNet(t, src, "storetest")
	dec, err := network.AsyncTechDecomp(net)
	if err != nil {
		t.Fatal(err)
	}
	cones, err := network.Partition(dec)
	if err != nil {
		t.Fatal(err)
	}
	fp, oh := lib.Fingerprint(), optionHash(opts.withDefaults())
	keys := make([]mapstore.Key, len(cones))
	for i, c := range cones {
		keys[i] = mapstore.EntryKey(mapstore.ConeKey(c.Expr), fp, oh)
	}
	return keys
}

// TestStorePoisonedEntryRecovered plants garbage payloads under the exact
// keys Map will consult. The records are checksum-valid, so only the
// decode-level validation stands between the garbage and emission: every
// poisoned entry must decode-fail into a miss, the run must match a
// store-less run byte for byte, and the entries must be repaired in place
// so the next run hits.
func TestStorePoisonedEntryRecovered(t *testing.T) {
	lib := library.MustGet("LSI9K")
	opts := Options{Mode: Async, Workers: 1}
	keys := coneEntryKeys(t, storeSrc, lib, opts)

	store := mapstore.NewMemory(0)
	garbage := [][]byte{
		{},                    // empty
		{0xff},                // wrong version
		{1, 0x05},             // truncated after node count
		{1, 0xff, 0xff, 0xff}, // absurd node count
	}
	for i, k := range keys {
		if err := store.Replace(k, garbage[i%len(garbage)]); err != nil {
			t.Fatal(err)
		}
	}

	base := mapWith(t, storeSrc, opts)
	o := opts
	o.Store = store
	res := mapWith(t, storeSrc, o)
	if res.Netlist.String() != base.Netlist.String() {
		t.Fatal("poisoned store changed the netlist")
	}
	// A repaired entry may legitimately be hit by a structurally
	// duplicate cone later in the same run; no hit may exceed that
	// baseline (i.e. no garbage payload survived as a hit).
	intra := freshStoreHits(t, storeSrc, lib, opts)
	if res.Stats.StoreHits != intra {
		t.Fatalf("hits=%d with a poisoned store, want %d (intra-run only)", res.Stats.StoreHits, intra)
	}
	if got := store.Stats().Corrupt; got == 0 {
		t.Fatal("decode-level corruption not counted")
	}

	// The Replace-on-repair path must have healed every key: all hits now.
	res2 := mapWith(t, storeSrc, o)
	if res2.Stats.StoreHits != res2.Stats.Cones {
		t.Fatalf("poisoned entries not repaired: hits=%d cones=%d",
			res2.Stats.StoreHits, res2.Stats.Cones)
	}
	if res2.Netlist.String() != base.Netlist.String() {
		t.Fatal("repaired store changed the netlist")
	}
}

// ecoThroughStore is the incremental (ECO) loop through the store: map
// storeSrc into an empty memory store, then map the edited design against
// it. The edited run must be byte-identical to a cold map of the edited
// design, deterministic stats included, and is returned for the caller to
// check which cones it replayed.
func ecoThroughStore(t *testing.T, editedSrc string, workers int) (eco *Result, net *network.Network) {
	t.Helper()
	lib := library.MustGet("LSI9K")
	store := mapstore.NewMemory(0)
	mapWith(t, storeSrc, Options{Mode: Async, Workers: workers, Store: store})
	cold := mapWith(t, editedSrc, Options{Mode: Async, Workers: workers})
	net = parseNet(t, editedSrc, "storetest")
	eco, err := Map(net, lib, Options{Mode: Async, Workers: workers, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if eco.Netlist.String() != cold.Netlist.String() {
		t.Fatalf("workers=%d: store-backed netlist differs from cold map:\n%s\n---\n%s",
			workers, eco.Netlist, cold.Netlist)
	}
	if eco.Stats.Deterministic() != cold.Stats.Deterministic() {
		t.Fatalf("workers=%d: store-backed deterministic stats fork:\n%+v\n---\n%+v",
			workers, cold.Stats.Deterministic(), eco.Stats.Deterministic())
	}
	return eco, net
}

// TestStoreSingleConeEdit: after one output's logic is edited, the store
// written by the original design serves every unchanged cone, and only
// the edited output's cones are covered again.
func TestStoreSingleConeEdit(t *testing.T) {
	editedSrc := `
INPUT(a, b, c, d)
OUTPUT(f, g, h, k)
u = a*b + c;
f = u*d';
g = u + a'*d;
w = c*d + a;
h = w;
k = a'*b'*d + c*b;
`
	for _, workers := range []int{1, 4} {
		eco, _ := ecoThroughStore(t, editedSrc, workers)
		if st := eco.Stats; st.Cones != 6 || st.StoreMisses != 2 || st.StoreHits != 4 {
			t.Errorf("workers=%d: cones=%d misses=%d hits=%d, want 6, 2 and 4",
				workers, st.Cones, st.StoreMisses, st.StoreHits)
		}
	}
}

// TestStoreStructurallyInvariantEdit: renaming a leaf inside a cone (h
// reading b instead of a) keeps the cone's canonical structure, so the
// store serves every cone — and the result is still the edited design's
// mapping, because emission applies the actual leaf names.
func TestStoreStructurallyInvariantEdit(t *testing.T) {
	editedSrc := `
INPUT(a, b, c, d)
OUTPUT(f, g, h, k)
u = a*b + c;
f = u*d';
g = u + a'*d;
w = c*d + b;
h = w;
k = a'*b' + c*d';
`
	for _, workers := range []int{1, 4} {
		eco, net := ecoThroughStore(t, editedSrc, workers)
		if st := eco.Stats; st.Cones != 7 || st.StoreHits != 7 || st.StoreMisses != 0 {
			t.Errorf("workers=%d: cones=%d hits=%d misses=%d, want 7, 7 and 0",
				workers, st.Cones, st.StoreHits, st.StoreMisses)
		}
		if err := VerifyEquivalence(net, eco.Netlist); err != nil {
			t.Fatalf("workers=%d: result not equivalent to the edited design: %v", workers, err)
		}
	}
}
