package core

// The covering-DP oracle (dp_ref_test.go), for the external test that
// drives it with designs from packages that import core.
var CompareDPWithReference = compareDP
