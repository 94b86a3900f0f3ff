//go:build race

package hog

// raceEnabled reports the race detector is active. Alloc-count tests
// skip under it, as in the other packages: they pin the allocations of
// the normal build, and race instrumentation may change them (it makes
// sync.Pool drop puts at random).
const raceEnabled = true
