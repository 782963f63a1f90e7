package pythia

import (
	"testing"

	"github.com/pythia-db/pythia/internal/baselines"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/span"
)

// TestDegradeMarksStampedAtArrival is the regression test for the tracer's
// old "timestamp 0 means now" guess: a degrade mark belongs at its query's
// arrival, here virtual time 0, also on a tracer that already went through a
// run. Before marks were derived from the stamped event, run 2's three marks
// landed at run 1's end (the stale clock's "now"). Every inference misses: the
// infer fault site runs at rate 1.
func TestDegradeMarksStampedAtArrival(t *testing.T) {
	s, w := testSystem(t)
	insts := w.Instances[:3]
	tr := span.New()
	s.cfg.Tracer = tr
	s = s.WithFault(fault.New(fault.Plan{InferenceRate: 1}, 3))
	for run := 1; run <= 2; run++ {
		tr.Reset()
		s.Run(insts, nil, baselines.Oracle)
		marks := 0
		for _, sp := range tr.Spans() {
			if !sp.IsMark(obs.InferenceDeadlineMiss) {
				continue
			}
			if sp.Start != 0 || int(sp.Query) != marks {
				t.Errorf("run %d: degrade mark %d = query %d at %d, want query %d at 0", run, marks, sp.Query, sp.Start, marks)
			}
			marks++
		}
		if marks != len(insts) {
			t.Fatalf("run %d: %d degrade marks, want %d", run, marks, len(insts))
		}
	}
}
