package quality

import (
	"math"
	"testing"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

func pg(obj, page uint32) storage.PageID {
	return storage.PageID{Object: storage.ObjectID(obj), Page: storage.PageNum(page)}
}

func TestScoreSets(t *testing.T) {
	cases := []struct {
		name         string
		pred, act    []storage.PageID
		want         Score
		wantP, wantR float64
	}{
		{
			name:  "exact overlap",
			pred:  []storage.PageID{pg(1, 1), pg(1, 2), pg(1, 3)},
			act:   []storage.PageID{pg(1, 1), pg(1, 2), pg(1, 3)},
			want:  Score{Predicted: 3, Actual: 3, TruePos: 3},
			wantP: 1, wantR: 1,
		},
		{
			name:  "partial, unsorted, duplicated inputs",
			pred:  []storage.PageID{pg(2, 9), pg(1, 1), pg(2, 9), pg(1, 5)},
			act:   []storage.PageID{pg(1, 5), pg(1, 5), pg(3, 1), pg(1, 1)},
			want:  Score{Predicted: 3, Actual: 3, TruePos: 2},
			wantP: 2.0 / 3, wantR: 2.0 / 3,
		},
		{
			name:  "disjoint",
			pred:  []storage.PageID{pg(1, 1)},
			act:   []storage.PageID{pg(2, 2)},
			want:  Score{Predicted: 1, Actual: 1, TruePos: 0},
			wantP: 0, wantR: 0,
		},
		{
			name:  "empty prediction is vacuously precise",
			pred:  nil,
			act:   []storage.PageID{pg(1, 1)},
			want:  Score{Predicted: 0, Actual: 1, TruePos: 0},
			wantP: 1, wantR: 0,
		},
		{
			name:  "empty ground truth is vacuously recalled",
			pred:  []storage.PageID{pg(1, 1)},
			act:   nil,
			want:  Score{Predicted: 1, Actual: 0, TruePos: 0},
			wantP: 0, wantR: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ScoreSets(tc.pred, tc.act)
			if got != tc.want {
				t.Fatalf("ScoreSets = %+v, want %+v", got, tc.want)
			}
			if p := got.Precision(); math.Abs(p-tc.wantP) > 1e-12 {
				t.Errorf("precision = %v, want %v", p, tc.wantP)
			}
			if r := got.Recall(); math.Abs(r-tc.wantR) > 1e-12 {
				t.Errorf("recall = %v, want %v", r, tc.wantR)
			}
		})
	}
}

func TestPSI(t *testing.T) {
	var a, b Sketch
	for i := uint64(0); i < 1000; i++ {
		a.Observe(i % 7)
		b.Observe(i % 7)
	}
	if psi := PSI(&a, &b); psi > 1e-9 {
		t.Fatalf("identical sketches: PSI = %v, want ~0", psi)
	}
	var c Sketch
	for i := uint64(0); i < 1000; i++ {
		c.Observe(1_000_000 + i%7) // different support entirely
	}
	if psi := PSI(&a, &c); psi < 1 {
		t.Fatalf("disjoint sketches: PSI = %v, want >= 1", psi)
	}
	var empty Sketch
	if psi := PSI(&empty, &empty); psi != 0 {
		t.Fatalf("empty sketches: PSI = %v, want 0", psi)
	}
}

func TestProfileHashStable(t *testing.T) {
	var a, b Profile
	a.ObserveTokens([]string{"Seq", "tbl", "Join"})
	b.ObserveTokens([]string{"Seq", "tbl", "Join"})
	if a.Hash() != b.Hash() {
		t.Fatal("identical streams must hash identically")
	}
	b.ObserveTokens([]string{"Seq"})
	if a.Hash() == b.Hash() {
		t.Fatal("diverged streams must hash differently")
	}
	if len(a.HashString()) != 16 {
		t.Fatalf("HashString = %q, want 16 hex chars", a.HashString())
	}
}

// TestDriftLevel: the level is the last evaluation's score against the
// thresholds, with no memory — one clean reading after an alarm reads ok.
func TestDriftLevel(t *testing.T) {
	for _, c := range []struct {
		score float64
		want  DriftState
	}{
		{0, DriftOK}, {warnPSI - 1e-9, DriftOK}, {warnPSI, DriftWarning},
		{alarmPSI - 1e-9, DriftWarning}, {alarmPSI, DriftAlarm}, {15, DriftAlarm},
	} {
		if got := Level(c.score); got != c.want {
			t.Errorf("Level(%v) = %v, want %v", c.score, got, c.want)
		}
	}

	base := &Profile{}
	for i := 0; i < 200; i++ {
		base.ObserveTokens([]string{"Seq", "lineitem", "Agg"})
	}
	m := NewMonitor(base, Options{EvalEvery: 4})
	feed := func(tokens ...string) DriftStats {
		for i := 0; i < 4; i++ {
			m.Observe(tokens)
		}
		return m.Stats()
	}
	if st := feed("Idx", "orders", "NestLoop", "Sort"); st.State != "alarm" || st.StateValue != 2 || st.Evaluations != 1 {
		t.Fatalf("held-out window = %+v, want alarm after one evaluation", st)
	}
	// Three halvings empty the held-out plans out of the window, and the
	// first evaluation that sees only the training mix reads ok.
	for i := 0; i < 2; i++ {
		if st := feed("Seq", "lineitem", "Agg"); st.State != Level(st.Score).String() {
			t.Fatalf("evaluation %d = %+v, state is not its score's level", st.Evaluations, st)
		}
	}
	if st := feed("Seq", "lineitem", "Agg"); st != (DriftStats{State: "ok", Evaluations: 4}) {
		t.Fatalf("pure training window = %+v, want ok at score 0", st)
	}
}

func TestMonitorDetectsShift(t *testing.T) {
	base := &Profile{}
	for i := 0; i < 200; i++ {
		base.ObserveTokens([]string{"Seq", "lineitem", "Agg"})
	}
	// Same mix: no drift, ever.
	m := NewMonitor(base, Options{EvalEvery: 4})
	for i := 0; i < 200; i++ {
		if m.Observe([]string{"Seq", "lineitem", "Agg"}) && m.Stats().State != "ok" {
			t.Fatalf("drift read %+v on the training mix at plan %d", m.Stats(), i)
		}
	}
	if st := m.Stats(); st.Evaluations != 50 {
		t.Fatalf("%d evaluations after 200 plans at EvalEvery 4, want 50", st.Evaluations)
	}
	// Held-out mix: every evaluation reads alarm.
	m2 := NewMonitor(base, Options{EvalEvery: 4})
	for i := 0; i < 200; i++ {
		if m2.Observe([]string{"Idx", "orders", "NestLoop", "Sort"}) && m2.Stats().State != "alarm" {
			t.Fatalf("held-out mix read %+v at plan %d, want alarm", m2.Stats(), i)
		}
	}

	// Nil-baseline monitor is inert.
	var nilMon *Monitor
	if nilMon.Observe([]string{"x"}) {
		t.Fatal("nil monitor must be inert")
	}
	if st := nilMon.Stats(); st != (DriftStats{State: "ok"}) {
		t.Fatalf("nil monitor stats = %+v, want ok and zeros", st)
	}
}

// TestNewReport scores four hand-built rows: set overlap from the page sets,
// event counts from each row's counters, workloads in first-seen order, and a
// nil counter snapshot read as no events.
func TestNewReport(t *testing.T) {
	counters := func(kinds ...obs.Kind) *obs.Counters {
		var c obs.Counters
		for _, k := range kinds {
			c.Record(obs.Event{Kind: k})
		}
		return &c
	}
	rows := []Row{
		{ID: "q0", Workload: "wl_a",
			Predicted: []storage.PageID{pg(1, 1), pg(1, 2)}, Actual: []storage.PageID{pg(1, 1), pg(1, 3)},
			Counters: counters(obs.PrefetchedIn, obs.PrefetchedIn, obs.PrefetchHit, obs.PrefetchWasted, obs.BufferMiss, obs.DiskRead)},
		{ID: "q1", Workload: "wl_b",
			Predicted: []storage.PageID{pg(2, 1)}, Actual: []storage.PageID{pg(2, 1)},
			Counters: counters(obs.PrefetchedIn, obs.PrefetchHit)},
		{ID: "q2", Workload: "wl_a", Counters: counters(obs.FallbackSyncRead)},
		{ID: "q3"},
	}
	r := NewReport(rows, nil)
	if len(r.Queries) != 4 || len(r.Workloads) != 3 {
		t.Fatalf("report shape: %d queries, %d workloads", len(r.Queries), len(r.Workloads))
	}
	for i, name := range []string{"wl_a", "wl_b", ""} {
		if r.Workloads[i].Workload != name {
			t.Fatalf("workload %d = %q, want %q (first-seen order)", i, r.Workloads[i].Workload, name)
		}
	}
	q0 := r.Queries[0]
	if q0.Set != (Score{Predicted: 2, Actual: 2, TruePos: 1}) {
		t.Fatalf("q0 set = %+v", q0.Set)
	}
	if q0.Events != (EventCounts{Prefetched: 2, Useful: 1, Wasted: 1, BufferMisses: 1}) {
		t.Fatalf("q0 events = %+v", q0.Events)
	}
	if r.Queries[3].Events != (EventCounts{}) {
		t.Fatalf("nil counters read as %+v, want no events", r.Queries[3].Events)
	}
	if a := r.Workloads[0]; a.Queries != 2 || a.Events.Fallbacks != 1 || a.Set.TruePos != 1 {
		t.Fatalf("wl_a aggregate = %+v", a)
	}
	if r.Total.Workload != "total" || r.Total.Queries != 4 ||
		r.Total.Events.Prefetched != 3 || r.Total.Set.TruePos != 2 {
		t.Fatalf("totals = %+v", r.Total)
	}
	if cov := r.Total.Coverage; math.Abs(cov-2.0/3) > 1e-12 {
		t.Fatalf("coverage = %v, want 2/3", cov)
	}
	if r.Drift != (DriftStats{State: "ok"}) {
		t.Fatalf("unarmed drift = %+v, want ok and zeros", r.Drift)
	}
}

// TestHotPathsNoAlloc pins the acceptance criterion: the drift hot path —
// sketch, profile and monitor updates, and the divergence — is
// allocation-free.
func TestHotPathsNoAlloc(t *testing.T) {
	var sk Sketch
	if n := testing.AllocsPerRun(200, func() { sk.Observe(42) }); n != 0 {
		t.Errorf("Sketch.Observe allocates %v/op", n)
	}

	var prof Profile
	tokens := []string{"Seq", "lineitem", "Agg", "Sort"}
	if n := testing.AllocsPerRun(200, func() { prof.ObserveTokens(tokens) }); n != 0 {
		t.Errorf("Profile.ObserveTokens allocates %v/op", n)
	}

	m := NewMonitor(&prof, Options{EvalEvery: 2})
	if n := testing.AllocsPerRun(200, func() { m.Observe(tokens) }); n != 0 {
		t.Errorf("Monitor.Observe allocates %v/op", n)
	}

	var liveP, liveB Profile
	liveP.ObserveTokens(tokens)
	if n := testing.AllocsPerRun(200, func() { _ = Divergence(&liveB, &liveP) }); n != 0 {
		t.Errorf("Divergence allocates %v/op", n)
	}
}
