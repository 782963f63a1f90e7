package experiments

import (
	"fmt"
	"sort"
)

// Runner is one experiment's entry point.
type Runner func(*Suite) *Table

// Registry maps experiment ids to runners, one per paper table/figure.
var Registry = map[string]Runner{
	"table1": (*Suite).Table1,
	"fig1":   (*Suite).Figure1,
	"fig5":   (*Suite).Figure5,
	"fig6":   (*Suite).Figure6,
	"fig7":   (*Suite).Figure7,
	"fig8":   (*Suite).Figure8,
	"fig10":  (*Suite).Figure10,
	"fig11":  (*Suite).Figure11,
	"fig12a": (*Suite).Figure12a,
	"fig12b": (*Suite).Figure12b,
	"fig12c": (*Suite).Figure12c,
	"fig12d": (*Suite).Figure12d,
	"fig12e": (*Suite).Figure12e,
	"fig12f": (*Suite).Figure12f,
	"fig12g": (*Suite).Figure12g,
	"fig12h": (*Suite).Figure12h,
	"fig13a": (*Suite).Figure13a,
	"fig13b": (*Suite).Figure13b,
	"fig13c": (*Suite).Figure13c,
	"fig13d": (*Suite).Figure13d,

	// Extensions beyond the paper's figures (documented in DESIGN.md).
	"ext-drift":         (*Suite).ExtDrift,
	"ext-serialization": (*Suite).ExtSerializationAblation,
	"ext-scheduler":     (*Suite).ExtScheduler,
	"ext-chaos":         (*Suite).ExtChaos,
}

// Names returns all experiment ids in stable order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for k := range Registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func (s *Suite) Run(id string) (*Table, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	return r(s), nil
}
