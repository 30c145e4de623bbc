//go:build race

package racedetect

// Enabled reports whether the binary was built with the race detector.
const Enabled = true
