//go:build race

package layout

func init() { raceEnabled = true }
