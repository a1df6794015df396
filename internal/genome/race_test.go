//go:build race

package genome

func init() { raceEnabled = true }
