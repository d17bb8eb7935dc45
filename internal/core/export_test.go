package core

// The covering-DP oracles (dp_ref_test.go), for the external tests that
// drive them with designs from packages that import core.
var (
	CompareDPWithReference = compareDP
	MapEachCone            = mapEachCone
)
