//go:build race

package vamana

func init() { raceEnabled = true }
