//go:build race

package cluster

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random, so allocation counts are not repeatable.
const raceEnabled = true
