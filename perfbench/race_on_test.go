//go:build race

package main

// raceEnabled reports a -race build, under which timing assertions are
// meaningless: instrumentation slows the system ~10×.
const raceEnabled = true
