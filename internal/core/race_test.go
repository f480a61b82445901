//go:build race

package core

// raceEnabled reports a -race build. Its instrumentation allocates where a
// plain build does not: Set.Grow's append(words, make(...)...) allocates the
// temporary instead of extending in place.
const raceEnabled = true
