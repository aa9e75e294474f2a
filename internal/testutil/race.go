//go:build race

package testutil

// Race reports whether the race detector is compiled in.
const Race = true
