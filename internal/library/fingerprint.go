package library

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"gfmap/internal/hazard"
)

// Fingerprint digests every field of the library that can influence a
// mapping result: cell order and names, Boolean factored forms (structure,
// not just function — the BFF determines hazard behaviour), pin order,
// area, delay, shared-pin declarations, and — critically — the hazard
// annotation state and the exact hazard set of every annotated cell.
//
// The fingerprint is the library component of a mapstore entry key, so it
// must change whenever a result computed against the old library could
// differ under the new one. Covering only names and areas is the classic
// stale-cache bug: editing a cell's delay or its hazard annotation between
// runs would silently serve results mapped against the old library. The
// digest is recomputed on every call, never memoized, so in-place field
// mutations are always observed. Every Map call pays for it, so the text
// is appended into one reused buffer and hashed in blocks.
func (l *Library) Fingerprint() string {
	h := sha256.New()
	b := make([]byte, 0, 4096)
	b = append(b, "lib:"...)
	b = append(b, l.Name...)
	b = append(b, "\ncells:"...)
	b = strconv.AppendInt(b, int64(len(l.Cells)), 10)
	b = append(b, "\nannotated:"...)
	b = strconv.AppendBool(b, l.annotated)
	b = append(b, '\n')
	var keys []uint64
	for _, c := range l.Cells {
		b = append(b, "cell:"...)
		b = append(b, c.Name...)
		b = append(b, "\nbff:"...)
		b = c.Fn.Root.AppendString(b)
		b = append(b, "\npins:"...)
		b = appendJoined(b, c.Fn.Vars)
		b = append(b, "\narea:"...)
		b = strconv.AppendFloat(b, c.Area, 'g', -1, 64)
		b = append(b, "\ndelay:"...)
		b = strconv.AppendFloat(b, c.Delay, 'g', -1, 64)
		b = append(b, "\nshared:"...)
		b = appendJoined(b, c.SharedPins)
		b = append(b, '\n')
		b, keys = appendHazards(b, keys, c)
		if len(b) >= cap(b)/2 {
			h.Write(b)
			b = b[:0]
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// appendJoined appends the strings of ss separated by commas.
func appendJoined(b []byte, ss []string) []byte {
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	return b
}

// appendHazards appends a cell's hazard annotation: the full transition
// sets, not a summary — two cells with equal hazard *counts* but different
// transitions filter differently in the subset check. The three states
// (unannotated, annotated-but-unbounded, annotated) are kept distinct.
// keys is scratch for the sorted transitions, returned for reuse.
func appendHazards(b []byte, keys []uint64, c *Cell) ([]byte, []uint64) {
	switch {
	case c.Report == nil:
		return append(b, "hazards:unannotated\n"...), keys
	case c.Hazards == nil:
		// Past the exact-analysis bound: treated as hazard-unknown.
		return append(b, "hazards:nil\n"...), keys
	}
	b = append(b, "hazards:n="...)
	b = strconv.AppendInt(b, int64(c.Hazards.N), 10)
	b = append(b, '\n')
	for _, k := range []hazard.Kind{hazard.KindStatic1, hazard.KindStatic0, hazard.KindDynamic} {
		// Exact sets have at most hazard.MaxExhaustiveVars variables.
		keys = c.Hazards.AppendTransitionKeys(keys[:0], k)
		for _, key := range keys {
			b = strconv.AppendInt(b, int64(k), 10)
			b = append(b, ':')
			b = strconv.AppendUint(b, key>>32, 10)
			b = append(b, '>')
			b = strconv.AppendUint(b, key&(1<<32-1), 10)
			b = append(b, '\n')
		}
	}
	return b, keys
}
