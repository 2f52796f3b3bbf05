//go:build race

package netstream

// raceEnabled reports a -race build, where sync.Pool drops entries at
// random and allocation counts are not meaningful.
const raceEnabled = true
