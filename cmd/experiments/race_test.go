//go:build race

package main

// raceEnabled: the race detector slows the campaigns several-fold.
const raceEnabled = true
