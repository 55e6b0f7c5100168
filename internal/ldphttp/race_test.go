//go:build race

package ldphttp

func init() { raceEnabled = true }
