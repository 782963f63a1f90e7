package predictor

import "github.com/pythia-db/pythia/internal/wallclock"

// Wall-clock indirection for cost measurement (TrainTime feeds bench/ and
// the baseline identity, never a simulation result). Tests swap these for a
// fake clock to assert the timing fields; detclock forbids direct time.Now
// here.
var (
	timeNow   = wallclock.Now
	timeSince = wallclock.Since
)
