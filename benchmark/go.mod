module openmb/benchmark

go 1.24.0

require openmb v0.0.0

// The benchmark measures the tree it sits in, from outside, through the
// packages' exported functions. The module path keeps the openmb/ prefix so
// the internal/ packages stay importable.
replace openmb => ../
