//go:build !race

package ski

const raceEnabled = false
