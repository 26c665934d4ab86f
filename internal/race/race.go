//go:build race

// Package race reports whether the race detector is compiled in, so
// allocation pins (testing.AllocsPerRun), which its instrumentation
// perturbs, can skip themselves under -race.
package race

// Enabled is true in a -race build.
const Enabled = true
