//go:build race

package wire

// raceEnabled reports whether the race detector instruments this
// build. Zero-allocation assertions skip under it: the detector
// deliberately randomizes sync.Pool reuse, so a warmed pool may still
// allocate.
const raceEnabled = true
