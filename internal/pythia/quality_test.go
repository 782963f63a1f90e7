package pythia

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/span"
)

// TestScorerReconcilesWithObsCounters pins the acceptance identity: on a
// golden replay run, the quality scorer's event totals equal the obs counters
// 1:1 — same stream, two views.
func TestScorerReconcilesWithObsCounters(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
	w := g.Workload("t91", 40, 1)
	train, test := w.Split(0.3, 3)

	var counters obs.Counters
	scorer := quality.NewScorer(quality.Options{})
	cfg := testConfig()
	cfg.Recorder = &counters
	cfg.Quality = scorer
	s := New(g.DB(), cfg)
	s.Train("t91", train)

	res := s.Run(test, nil, s.Prefetch)
	if len(res.Queries) != len(test) {
		t.Fatalf("replayed %d queries, want %d", len(res.Queries), len(test))
	}

	r := scorer.Report()
	if len(r.Queries) != len(test) {
		t.Fatalf("scored %d queries, want %d", len(r.Queries), len(test))
	}
	ev := r.Total.Events
	identities := []struct {
		name   string
		scorer uint64
		kind   obs.Kind
	}{
		{"prefetched", ev.Prefetched, obs.PrefetchedIn},
		{"useful", ev.Useful, obs.PrefetchHit},
		{"wasted", ev.Wasted, obs.PrefetchWasted},
		{"fallback sync reads", ev.Fallbacks, obs.FallbackSyncRead},
		{"buffer misses", ev.BufferMisses, obs.BufferMiss},
	}
	for _, id := range identities {
		if got := counters.Get(id.kind); id.scorer != got {
			t.Errorf("%s: scorer total %d, obs counter %d", id.name, id.scorer, got)
		}
	}
	if ev.Prefetched == 0 || ev.Useful == 0 {
		t.Fatalf("golden run produced no prefetch traffic to reconcile: %+v", ev)
	}
	if counters.Get(obs.QualityScored) != uint64(len(test)) {
		t.Fatalf("QualityScored = %d, want one per query (%d)",
			counters.Get(obs.QualityScored), len(test))
	}
	// The set view must be live too: a trained predictor on its own template
	// family prefetches something useful.
	if r.Total.Precision <= 0 || r.Total.Recall <= 0 {
		t.Fatalf("degenerate set scores: %+v", r.Total)
	}
	// And the two views agree on what "wasted" means at the aggregate level:
	// wasted + useful + fallbacks cannot exceed what was prefetched in.
	if ev.Useful+ev.Wasted > ev.Prefetched {
		t.Fatalf("useful %d + wasted %d exceed prefetched %d", ev.Useful, ev.Wasted, ev.Prefetched)
	}
}

// TestDriftAlarmDeterministic pins the acceptance criterion: replaying a
// held-out template mix against a baseline trained on a different mix fires
// the drift alarm; replaying the training mix does not.
func TestDriftAlarmDeterministic(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
	trainW := g.Workload("t18", 40, 1)
	heldOut := g.Workload("t91", 40, 2)

	newSys := func() (*System, *quality.Scorer, *obs.Counters) {
		var counters obs.Counters
		scorer := quality.NewScorer(quality.Options{EvalEvery: 8})
		cfg := testConfig()
		cfg.Recorder = &counters
		cfg.Quality = scorer
		s := New(g.DB(), cfg)
		s.Train("t18", trainW.Instances[:30])
		scorer.SetBaseline(s.Baseline())
		return s, scorer, &counters
	}

	// Training mix: no alarm, ever.
	s, scorer, counters := newSys()
	s.Run(trainW.Instances[30:], nil, s.Prefetch)
	if st := scorer.Report().Drift; st.State != "ok" || st.Alarms != 0 || st.Warnings != 0 {
		t.Fatalf("training mix drifted: %+v", st)
	}
	if counters.Get(obs.DriftAlarm) != 0 {
		t.Fatal("DriftAlarm recorded on the training mix")
	}

	// Held-out mix: the alarm fires, and the obs event stream says so.
	s2, scorer2, counters2 := newSys()
	s2.Run(heldOut.Instances, nil, s2.Prefetch)
	st := scorer2.Report().Drift
	if st.State != "alarm" {
		t.Fatalf("held-out mix state = %q (score %.3f), want alarm", st.State, st.Score)
	}
	if counters2.Get(obs.DriftAlarm) == 0 {
		t.Fatal("no DriftAlarm event recorded on the held-out mix")
	}
	if scorer2.Report().BaselineHash != scorer.Report().BaselineHash {
		t.Fatal("both runs must report the same baseline identity")
	}

	// Determinism: the same held-out replay scores identically.
	s3, scorer3, _ := newSys()
	s3.Run(heldOut.Instances, nil, s3.Prefetch)
	a, b := scorer2.Report(), scorer3.Report()
	if a.Drift != b.Drift || !reflect.DeepEqual(a.Total, b.Total) {
		t.Fatalf("held-out replay not deterministic:\n%+v\nvs\n%+v", a.Drift, b.Drift)
	}
}

// TestQualityObservationDoesNotPerturbTimeline pins the acceptance
// criterion: a traced run's timeline is bitwise identical with quality
// observation enabled.
func TestQualityObservationDoesNotPerturbTimeline(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
	w := g.Workload("t91", 24, 1)
	train, test := w.Split(0.3, 3)

	trace := func(withQuality bool) []span.Span {
		cfg := testConfig()
		cfg.Tracer = span.New()
		if withQuality {
			cfg.Quality = quality.NewScorer(quality.Options{})
		}
		s := New(g.DB(), cfg)
		s.Train("t91", train)
		if withQuality {
			// Arm drift too: the training mix holds no transitions, so even
			// an armed monitor must leave the timeline untouched.
			cfg.Quality.SetBaseline(s.Baseline())
		}
		s.Run(test, nil, s.Prefetch)
		return cfg.Tracer.Spans()
	}

	plain := trace(false)
	observed := trace(true)
	if len(plain) == 0 {
		t.Fatal("traced run produced no spans")
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("timeline changed under quality observation: %d vs %d spans", len(plain), len(observed))
	}
}

// TestBaselinePersistsInSnapshot round-trips the drift baseline through the
// PYSNAP envelope: identity survives, and a pre-baseline snapshot (nil
// Baseline) loads with drift off.
func TestBaselinePersistsInSnapshot(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
	w := g.Workload("t91", 20, 1)
	train, _ := w.Split(0.5, 3)

	s := New(g.DB(), testConfig())
	s.Train("t91", train)
	id := s.BaselineID()
	if id == nil || id.Plans != uint64(len(train)) || id.Workloads != 1 {
		t.Fatalf("baseline id = %+v", id)
	}
	if id.TrainTime <= 0 {
		t.Fatalf("baseline id TrainTime = %v, want > 0", id.TrainTime)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSystem(g.DB(), testConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	lid := loaded.BaselineID()
	if lid == nil || lid.Hash != id.Hash || lid.Plans != id.Plans {
		t.Fatalf("loaded baseline id %+v, want %+v", lid, id)
	}

	// A snapshot whose workload predates baselines: simulate by clearing.
	loaded.trained[0].Baseline = nil
	if loaded.Baseline() != nil || loaded.BaselineID() != nil {
		t.Fatal("nil workload baselines must yield a nil system baseline")
	}
}
