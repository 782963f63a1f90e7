package experiments

import (
	"fmt"

	"github.com/pythia-db/pythia/internal/fault"
)

// ExtChaos is the degradation sweep: Pythia prefetching under deterministic
// fault injection at increasing prefetch-path fault rates, measured as
// speedup over the fault-free default (no-prefetch) baseline. The claim
// under test is the safety half of the paper's argument: prefetching is
// advisory, so faults in the prefetch path can only erode the speedup toward
// 1× (the retry → abandon → give-up ladder converges to the baseline), never
// push the system below it.
//
// Faults are confined to the prefetch path (prefetch device reads and model
// inference) — foreground-read faults would slow the baseline's own I/O and
// measure the fault model, not the degradation ladder.
func (s *Suite) ExtChaos() *Table {
	t := newTable("ext-chaos", "Fault injection and graceful degradation (t91)",
		"prefetch fault rate", "speedup", "retries", "abandons", "fallback reads", "inference misses")
	sys := s.system("t91")
	insts := s.speedupSample("t91")

	base := sys.Run(insts, nil, nil)
	baseT := float64(base.TotalElapsed())

	for _, rate := range []float64{0, 0.01, 0.05, 0.20} {
		plan := fault.Plan{
			PrefetchReadRate: rate,
			InferenceRate:    rate / 2,
		}
		chaos := sys.WithFault(fault.New(plan, s.cfg.Seed+77))
		res := chaos.Run(insts, nil, chaos.Prefetch)
		t.addRow(fmt.Sprintf("%g%%", rate*100), baseT/float64(res.TotalElapsed()),
			float64(res.PrefetchRetries), float64(res.PrefetchAbandons),
			float64(res.FallbackSyncReads), float64(res.InferenceDeadlineMisses))
	}
	return t
}
