package predictor

import (
	"testing"
	"time"

	"github.com/pythia-db/pythia/internal/sim"
)

// TestTrainTimeUsesInjectedClock pins the clock plumbing: with the package's
// timeNow/timeSince vars swapped for a fake, TrainTime is exactly the faked
// interval. Direct time.Now calls here would both break this test and be
// rejected by the detclock analyzer.
func TestTrainTimeUsesInjectedClock(t *testing.T) {
	const step = 42 * time.Millisecond
	savedNow, savedSince := timeNow, timeSince
	timeNow = func() time.Time { return time.Unix(0, 0) }
	timeSince = func(time.Time) time.Duration { return step }
	t.Cleanup(func() { timeNow, timeSince = savedNow, savedSince })

	db := workloadDB()
	r := sim.NewRand(9)
	var params []int64
	for i := 0; i < 8; i++ {
		params = append(params, r.Int63n(900))
	}
	samples, _ := buildSamples(t, db, params)
	opts := fastOpts()
	opts.Model.Epochs = 2
	p := Train(samples, opts)
	if p.TrainTime != step {
		t.Fatalf("TrainTime = %v, want exactly %v from the injected clock", p.TrainTime, step)
	}
}
