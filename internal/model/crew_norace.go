//go:build !race

package model

// raceShift is 0 without the race detector (see crew_race.go).
const raceShift = 0
