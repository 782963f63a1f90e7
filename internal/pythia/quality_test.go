package pythia

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// TestRunResultCarriesPrefetchSet pins what each QueryResult says was
// issued: the buffer-bounded strategy output, or nil when the query's
// inference missed its deadline and it ran on the default path.
func TestRunResultCarriesPrefetchSet(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
	insts := g.Workload("t91", 24, 1).Instances
	oracle := func(inst *workload.Instance) []storage.PageID { return inst.Pages }

	log := obs.NewEventLog()
	cfg := testConfig()
	cfg.Replay.BufferPages = 64 // a budget of 48 pages, so limiting bites
	cfg.Recorder = log
	s := New(g.DB(), cfg).WithFault(fault.New(fault.Plan{InferenceRate: 0.5}, 3))
	res := s.Run(insts, nil, oracle)

	missed := map[int32]bool{}
	for _, e := range log.Events() {
		if e.Kind == obs.InferenceDeadlineMiss {
			missed[e.Query] = true
		}
	}
	if len(missed) == 0 || len(missed) == len(insts) {
		t.Fatalf("%d of %d inferences missed; want a mix", len(missed), len(insts))
	}
	limited := 0
	for i, inst := range insts {
		got := res.Queries[i].Prefetch
		if missed[int32(i)] {
			if got != nil {
				t.Errorf("query %d missed its deadline but carries %d prefetch pages", i, len(got))
			}
			continue
		}
		if want := s.LimitPrefetch(oracle(inst)); !reflect.DeepEqual(got, want) {
			t.Errorf("query %d prefetch = %d pages, want LimitPrefetch(strategy) = %d", i, len(got), len(want))
		}
		if len(got) < len(inst.Pages) {
			limited++
		}
	}
	if limited == 0 {
		t.Fatal("no prefetch set was truncated; the budget did not bite")
	}
}

// TestReportReadsRunCounters builds the quality report of a recorded
// held-out run and recomputes it independently: each row's set score from a
// fresh prediction, each row's events from the query's counters and
// hand-kept fields, and the totals from the buffer pool's own stats.
func TestReportReadsRunCounters(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
	train, test := g.Workload("t91", 40, 1).Split(0.3, 3)

	var counters obs.Counters
	cfg := testConfig()
	cfg.Recorder = &counters
	s := New(g.DB(), cfg)
	s.Train("t91", train)
	res := s.Run(test, nil, s.Prefetch)

	drift := quality.NewMonitor(s.Baseline(), quality.Options{})
	rows := make([]quality.Row, len(test))
	for i, inst := range test {
		drift.Observe(DriftTokens(inst.Plan))
		q := &res.Queries[i]
		rows[i] = quality.Row{ID: q.ID, Workload: "t91", Predicted: q.Prefetch, Actual: inst.Pages, Counters: q.Counters}
	}
	r := quality.NewReport(rows, drift)
	if len(r.Queries) != len(test) || len(r.Workloads) != 1 {
		t.Fatalf("report shape: %d queries, %d workloads", len(r.Queries), len(r.Workloads))
	}

	for i, inst := range test {
		got, q := r.Queries[i], &res.Queries[i]
		if want := quality.ScoreSets(s.Prefetch(inst), inst.Pages); got.Set != want {
			t.Errorf("query %d set = %+v, want %+v", i, got.Set, want)
		}
		want := quality.EventCounts{
			Prefetched:   q.Counters.Get(obs.PrefetchedIn),
			Useful:       q.Counters.Get(obs.PrefetchHit),
			Wasted:       q.Counters.Get(obs.PrefetchWasted),
			Fallbacks:    q.FallbackSyncReads,
			BufferMisses: q.OSCopies + q.DiskReads,
		}
		if got.Events != want {
			t.Errorf("query %d events = %+v, want %+v", i, got.Events, want)
		}
	}

	ev := r.Total.Events
	identities := []struct {
		name        string
		report, run uint64
	}{
		{"prefetched", ev.Prefetched, res.Buffer.PrefetchedIn},
		{"useful", ev.Useful, res.Buffer.PrefetchHits},
		{"wasted", ev.Wasted, res.Buffer.PrefetchWasted},
		{"fallback sync reads", ev.Fallbacks, res.FallbackSyncReads},
		{"buffer misses", ev.BufferMisses, res.Buffer.Misses},
	}
	for _, id := range identities {
		if id.report != id.run {
			t.Errorf("%s: report total %d, run %d", id.name, id.report, id.run)
		}
	}
	if ev.Prefetched == 0 || ev.Useful == 0 || r.Total.Precision <= 0 || r.Total.Recall <= 0 {
		t.Fatalf("held-out run produced no prefetch traffic to score: %+v", r.Total)
	}
	if r.Drift != drift.Stats() || r.Drift.State != "ok" {
		t.Fatalf("drift block = %+v, want the monitor's ok state", r.Drift)
	}
}

// TestDriftAlarmDeterministic pins the acceptance criterion: a monitor fed
// a held-out template mix against a baseline trained on a different mix
// alarms; fed the training mix, it stays ok; a long in-distribution stream
// reads the level of its score after every evaluation and ends ok; and the
// same stream always reads the same.
func TestDriftAlarmDeterministic(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 8, Seed: 7})
	trainW := g.Workload("t18", 40, 1)
	heldOut := g.Workload("t91", 40, 2)
	s := New(g.DB(), testConfig())
	s.Train("t18", trainW.Instances[:30])

	feed := func(insts []*workload.Instance) quality.DriftStats {
		m := quality.NewMonitor(s.Baseline(), quality.Options{EvalEvery: 8})
		for _, inst := range insts {
			if m.Observe(DriftTokens(inst.Plan)) {
				if st := m.Stats(); st.State != quality.Level(st.Score).String() {
					t.Fatalf("evaluation %d reads %q at score %.3f, want %q", st.Evaluations, st.State, st.Score, quality.Level(st.Score))
				}
			}
		}
		return m.Stats()
	}

	if st := feed(trainW.Instances[30:]); st.State != "ok" {
		t.Fatalf("training mix drifted: %+v", st)
	}
	// 200 fresh t18 plans: single evaluations spike past the thresholds on a
	// small window, and the stream still ends at the level its score reads.
	if st := feed(g.Workload("t18", 200, 5).Instances); st.State != "ok" || st.Evaluations != 25 {
		t.Fatalf("in-distribution stream = %+v, want ok after 25 evaluations", st)
	}
	st := feed(heldOut.Instances)
	if st.State != "alarm" || st.Score < 10 {
		t.Fatalf("held-out mix = %+v, want alarm", st)
	}
	if again := feed(heldOut.Instances); again != st {
		t.Fatalf("held-out mix not deterministic:\n%+v\nvs\n%+v", st, again)
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
