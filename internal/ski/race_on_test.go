//go:build race

package ski

const raceEnabled = true
