//go:build race

package model

// raceShift shrinks the crew's poll budget under the race detector, where
// a poll costs tens of times what it does without (see spinPolls).
const raceShift = 6
