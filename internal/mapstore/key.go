package mapstore

import (
	"crypto/sha256"
	"strconv"

	"gfmap/internal/bexpr"
)

// ConeKey renders a cone function as a canonical signature: the
// expression's structural key (Expr.AppendKey: every leaf renamed
// positionally, v0, v1, … in first-appearance order), prefixed with the
// leaf count. Two cones get the same signature exactly when they have the
// same tree — operator, operand count and operand order at every node —
// and the same leaf-equality pattern, whatever their signals are called or
// wherever in a design they sit. That is the condition under which the
// covering DP produces the same solution for both: leaf costs are
// context-free and cluster functions are already positional. The
// signature is the mapper's one cone identity: store entries and the
// grouping of a run's repeated cones are both keyed by it.
//
// The key parenthesises an AND or OR operand of the same operator, which
// Expr.String flattens; signatures rendered with String let differently
// grouped trees collide. Cones without same-operator nesting keep the
// signature String gave them, so their store entries stay warm.
//
// Deliberately NOT canonicalized further: operand order is preserved. The
// DP breaks cost ties by first match found, so commutatively-sorted
// operands could replay a solution whose tie-breaks differ from what a
// cold run of this exact tree would choose, breaking byte-identity.
func ConeKey(fn *bexpr.Function) string {
	var buf [128]byte
	key, n := fn.Root.AppendKey(buf[:0])
	return strconv.Itoa(n) + ":" + string(key)
}

// EntryKey derives the content address of a cone's mapping result from
// the full identity triple. Any change to the cone structure, to any
// option-relevant library field (including hazard annotations — see
// library.Fingerprint), or to any semantically relevant mapping option
// changes the key, so a stale entry can never be served; it simply stops
// being addressed.
func EntryKey(coneKey, libFingerprint, optionHash string) Key {
	h := sha256.New()
	h.Write([]byte(coneKey))
	h.Write([]byte{0})
	h.Write([]byte(libFingerprint))
	h.Write([]byte{0})
	h.Write([]byte(optionHash))
	var k Key
	h.Sum(k[:0])
	return k
}
