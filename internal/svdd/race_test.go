//go:build race

package svdd

const raceEnabled = true
