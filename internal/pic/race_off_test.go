//go:build !race

package pic

const raceEnabled = false
