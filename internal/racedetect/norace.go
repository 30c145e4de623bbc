//go:build !race

// Package racedetect tells tests whether the race detector is compiled in.
// Allocation-count assertions skip under it: the detector makes sync.Pool
// drop items at random and instruments allocations, so counts measured there
// say nothing about the production build. The sbi frame pool reads it too,
// to poison released frames where a read after release must fail loudly.
package racedetect

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
