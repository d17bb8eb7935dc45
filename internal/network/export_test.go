package network

// The reference front end (decomp_ref_test.go), for the external oracle
// test.
var (
	RefAsyncTechDecomp = refAsyncTechDecomp
	RefPartition       = refPartition
)
