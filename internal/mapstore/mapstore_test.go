package mapstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gfmap/internal/bexpr"
)

func testKey(i int) Key {
	return EntryKey(fmt.Sprintf("cone%d", i), "lib", "opts")
}

func TestRoundtripAndPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[int][]byte{}
	for i := 0; i < 50; i++ {
		v := []byte(fmt.Sprintf("value-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i)))
		vals[i] = v
		if err := s.Put(testKey(i), v); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range vals {
		got, ok := s.Get(testKey(i))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %d: got %q ok=%v, want %q", i, got, ok, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything must still be there, from disk.
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, want := range vals {
		got, ok := s2.Get(testKey(i))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("after reopen, key %d: got %q ok=%v, want %q", i, got, ok, want)
		}
	}
	st := s2.Stats()
	if st.Corrupt != 0 {
		t.Fatalf("clean reopen counted %d corrupt records", st.Corrupt)
	}
	if st.Entries != 50 {
		t.Fatalf("entries = %d, want 50", st.Entries)
	}
}

func TestPutDeduplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	k := testKey(0)
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	size1 := s.Stats().DiskBytes
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if size2 := s.Stats().DiskBytes; size2 != size1 {
		t.Fatalf("duplicate Put grew the log: %d -> %d", size1, size2)
	}
}

// TestTornWriteSelfHeals simulates a crash mid-append: the file ends in a
// partial record. Open must keep every intact record, count the bad tail
// as corrupt, and truncate it away so subsequent appends work.
func TestTornWriteSelfHeals(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := s.Stats().DiskBytes
	if err := s.Put(testKey(5), []byte("doomed-by-torn-write")); err != nil {
		t.Fatal(err)
	}
	tornSize := s.Stats().DiskBytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop bytes off the end, leaving a partial
	// record after the 5 good ones.
	if err := os.Truncate(path, tornSize-7); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.Corrupt == 0 {
		t.Fatal("torn tail not counted as corrupt")
	}
	if st.Entries != 5 {
		t.Fatalf("entries after heal = %d, want 5", st.Entries)
	}
	if st.DiskBytes != goodSize {
		t.Fatalf("heal truncated to %d bytes, want %d", st.DiskBytes, goodSize)
	}
	for i := 0; i < 5; i++ {
		got, ok := s2.Get(testKey(i))
		if !ok || string(got) != fmt.Sprintf("val%d", i) {
			t.Fatalf("intact record %d lost after heal: %q ok=%v", i, got, ok)
		}
	}
	if _, ok := s2.Get(testKey(5)); ok {
		t.Fatal("torn record served")
	}
	// The healed log must accept appends and survive another reopen.
	if err := s2.Put(testKey(6), []byte("after-heal")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.Corrupt != 0 {
		t.Fatalf("reopen of healed log counted %d corrupt records", st.Corrupt)
	}
	if got, ok := s3.Get(testKey(6)); !ok || string(got) != "after-heal" {
		t.Fatal("post-heal append lost")
	}
}

// TestBitRotDropsRecord flips a byte inside a committed record; the CRC
// must reject it at read time and the corrupted middle record must not
// poison its neighbours on reopen.
func TestBitRotDropsRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("value-number-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a value byte in the middle record (record 1 of 0..2).
	recLen := (len(data) - len(fileMagic)) / 3
	pos := len(fileMagic) + recLen + recHeaderSize + KeySize + 2
	data[pos] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// A corrupt middle record costs the tail too — the scan cannot trust
	// record boundaries past a bad checksum. Records before it survive.
	if got, ok := s2.Get(testKey(0)); !ok || string(got) != "value-number-0" {
		t.Fatalf("record before rot lost: %q ok=%v", got, ok)
	}
	if _, ok := s2.Get(testKey(1)); ok {
		t.Fatal("bit-rotted record served")
	}
	if s2.Stats().Corrupt == 0 {
		t.Fatal("bit rot not counted")
	}
}

func TestReplaceSupersedes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	if err := s.Put(k, []byte("poisoned")); err != nil {
		t.Fatal(err)
	}
	if err := s.Replace(k, []byte("repaired")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(k); string(got) != "repaired" {
		t.Fatalf("Replace not visible in-process: %q", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Last record must win on rescan.
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, ok := s2.Get(k); !ok || string(got) != "repaired" {
		t.Fatalf("Replace lost across reopen: %q ok=%v", got, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	s, err := Open(path, Options{MaxMemEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemEntries != 4 {
		t.Fatalf("mem entries = %d, want 4", st.MemEntries)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6", st.Evictions)
	}
	// Evicted entries fall back to the disk tier.
	for i := 0; i < 10; i++ {
		if got, ok := s.Get(testKey(i)); !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d lost after eviction: %q ok=%v", i, got, ok)
		}
	}
	st = s.Stats()
	if st.DiskHits == 0 {
		t.Fatal("no disk hits after evictions")
	}
}

func TestMemoryStore(t *testing.T) {
	s := NewMemory(3)
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Memory-only: evicted entries are gone for good.
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("evicted entry survived in a memory-only store")
	}
	if got, ok := s.Get(testKey(4)); !ok || string(got) != "v4" {
		t.Fatalf("hot entry lost: %q ok=%v", got, ok)
	}
}

func TestNilStore(t *testing.T) {
	var s *Store
	if _, ok := s.Get(testKey(0)); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put(testKey(0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s.MarkCorrupt()
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil store stats = %+v", st)
	}
}

// TestTwoHandles opens the same log through two independent handles —
// standing in for two processes — and checks that each sees the other's
// appends via tail refresh, under the race detector.
func TestTwoHandles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	a, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const n = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Put(testKey(i), []byte(fmt.Sprintf("a%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := n; i < 2*n; i++ {
			if err := b.Put(testKey(i), []byte(fmt.Sprintf("b%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Each handle must see the union via live refresh, without reopening.
	for i := 0; i < n; i++ {
		if got, ok := b.Get(testKey(i)); !ok || string(got) != fmt.Sprintf("a%d", i) {
			t.Fatalf("handle b missing a's key %d: %q ok=%v", i, got, ok)
		}
	}
	for i := n; i < 2*n; i++ {
		if got, ok := a.Get(testKey(i)); !ok || string(got) != fmt.Sprintf("b%d", i) {
			t.Fatalf("handle a missing b's key %d: %q ok=%v", i, got, ok)
		}
	}
	// And a fresh handle sees the union from a clean scan.
	c, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); st.Entries != 2*n {
		t.Fatalf("fresh handle sees %d entries, want %d", st.Entries, 2*n)
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Fatalf("interleaved appends produced %d corrupt records", st.Corrupt)
	}
}

// TestConcurrentSameHandle hammers one handle from many goroutines.
func TestConcurrentSameHandle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	s, err := Open(path, Options{MaxMemEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := testKey(i % 25)
				want := fmt.Sprintf("v%d", i%25)
				if err := s.Put(k, []byte(want)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(k); !ok || string(got) != want {
					t.Errorf("got %q ok=%v want %q", got, ok, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(0)
	if err := s.Put(k, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Replace(k, []byte(fmt.Sprintf("gen%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(testKey(1), []byte("other")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().DiskBytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().DiskBytes
	if after >= before {
		t.Fatalf("compact did not shrink the log: %d -> %d", before, after)
	}
	if got, ok := s.Get(k); !ok || string(got) != "gen19" {
		t.Fatalf("latest version lost by compact: %q ok=%v", got, ok)
	}
	if got, ok := s.Get(testKey(1)); !ok || string(got) != "other" {
		t.Fatalf("live key lost by compact: %q ok=%v", got, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Entries != 2 || st.Corrupt != 0 {
		t.Fatalf("compacted log: entries=%d corrupt=%d, want 2/0", st.Entries, st.Corrupt)
	}
}

// TestCompactManyKeysPreservesAll: compaction over a large index (the
// sort.Slice path) keeps every live record and survives reopen.
func TestCompactManyKeysPreservesAll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gfm")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got, ok := s.Get(testKey(i)); !ok || string(got) != fmt.Sprintf("val%d", i) {
			t.Fatalf("key %d after compact: %q ok=%v", i, got, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Entries != n || st.Corrupt != 0 {
		t.Fatalf("after reopen: entries=%d corrupt=%d, want %d/0", st.Entries, st.Corrupt, n)
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-store")
	if err := os.WriteFile(path, []byte("hello, world — definitely not a mapstore"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a non-store file")
	}
}

func TestConeKeyLeafRenameInvariance(t *testing.T) {
	// Same structure, different leaf names → same key.
	e1 := bexpr.And(bexpr.Var("a"), bexpr.Or(bexpr.Var("b"), bexpr.Not(bexpr.Var("a"))))
	e2 := bexpr.And(bexpr.Var("x9"), bexpr.Or(bexpr.Var("q"), bexpr.Not(bexpr.Var("x9"))))
	k1, k2 := ConeKey(bexpr.New(e1)), ConeKey(bexpr.New(e2))
	if k1 != k2 {
		t.Fatalf("alpha-equivalent cones keyed differently:\n%s\n%s", k1, k2)
	}

	// Different leaf-equality pattern → different key, even with the same
	// skeleton (a&(b|!a) vs a&(b|!c)).
	e3 := bexpr.And(bexpr.Var("a"), bexpr.Or(bexpr.Var("b"), bexpr.Not(bexpr.Var("c"))))
	if k3 := ConeKey(bexpr.New(e3)); k3 == k1 {
		t.Fatalf("distinct leaf patterns collided: %s", k3)
	}

	// Operand order matters (deliberately no commutative canonicalization).
	e4 := bexpr.And(bexpr.Or(bexpr.Var("b"), bexpr.Not(bexpr.Var("a"))), bexpr.Var("a"))
	if k4 := ConeKey(bexpr.New(e4)); k4 == k1 {
		t.Fatal("operand order was canonicalized away")
	}
}

func TestEntryKeySeparatesComponents(t *testing.T) {
	base := EntryKey("cone", "lib", "opt")
	if EntryKey("cone", "lib", "optX") == base ||
		EntryKey("cone", "libX", "opt") == base ||
		EntryKey("coneX", "lib", "opt") == base {
		t.Fatal("EntryKey ignored a component")
	}
	// Concatenation ambiguity must not collide ("ab"+"c" vs "a"+"bc").
	if EntryKey("ab", "c", "opt") == EntryKey("a", "bc", "opt") {
		t.Fatal("EntryKey components not separated")
	}
}

// ConeKey is exact: String renders all three ORs below as
// "v0 + v1 + v2 + v3 + v4", but their trees differ, so their keys must.
// A cone without same-operator nesting keeps the key earlier versions
// wrote, so its store entries stay warm.
func TestConeKeyKeepsGrouping(t *testing.T) {
	v := func(name string) *bexpr.Expr { return bexpr.Var(name) }
	for _, c := range []struct {
		e    *bexpr.Expr
		want string
	}{
		{bexpr.Or(v("a"), bexpr.Or(bexpr.Or(v("b"), v("c")), bexpr.Or(v("d"), v("e")))),
			"5:v0 + ((v1 + v2) + (v3 + v4))"},
		{bexpr.Or(bexpr.Or(bexpr.Or(v("a"), v("b")), bexpr.Or(v("c"), v("d"))), v("e")),
			"5:((v0 + v1) + (v2 + v3)) + v4"},
		{bexpr.Or(v("a"), v("b"), v("c"), v("d"), v("e")),
			"5:v0 + v1 + v2 + v3 + v4"},
		{bexpr.And(v("a"), bexpr.And(v("b"), bexpr.Not(bexpr.And(v("c"), v("a"))))),
			"3:v0*(v1*(v2*v0)')"},
		{bexpr.MustParseExpr("x*(y + z') + x'*w*(u + y) + (x + w)'"),
			"5:v0*(v1 + v2') + v0'*v3*(v4 + v1) + (v0 + v3)'"},
	} {
		if got := ConeKey(bexpr.New(c.e)); got != c.want {
			t.Errorf("ConeKey(%s) = %q, want %q", c.e, got, c.want)
		}
	}
}
