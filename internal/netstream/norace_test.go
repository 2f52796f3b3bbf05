//go:build !race

package netstream

const raceEnabled = false
