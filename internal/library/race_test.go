//go:build race

package library_test

// raceEnabled reports a race-detector build, where the longest memo test
// would take minutes.
const raceEnabled = true
