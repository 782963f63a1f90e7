package analysis

import "strings"

// DeterministicPackages lists the module-relative import paths whose results
// must be bitwise reproducible: everything that executes under the virtual
// clock, builds replay inputs, or computes model state. detclock and mapiter
// run only here; noalloc, errdiscard and goleak run module-wide.
//
// Every internal package is on this list except the four that are the
// repo's sanctioned wall-clock surface — serve, wallclock, experiments and
// analysis itself — and TestRosterCoversEveryPackage holds that split, so a
// new package has to pick a side. The CLI mains are off the list too.
var DeterministicPackages = []string{
	"internal/baselines",
	"internal/buffer",
	"internal/catalog",
	"internal/dsb",
	"internal/exec",
	"internal/fault",
	"internal/imdb",
	"internal/index",
	"internal/metrics",
	"internal/model",
	"internal/nn",
	"internal/obs",
	"internal/oscache",
	"internal/plan",
	"internal/predictor",
	"internal/pythia",
	"internal/quality",
	"internal/replay",
	"internal/scheduler",
	"internal/serialize",
	"internal/sim",
	"internal/span",
	"internal/spec",
	"internal/storage",
	"internal/trace",
	"internal/workload",
}

// IsDeterministic reports whether the import path (under the given module
// path) is one of the deterministic packages.
func IsDeterministic(modulePath, pkgPath string) bool {
	rel := strings.TrimPrefix(pkgPath, modulePath+"/")
	for _, p := range DeterministicPackages {
		if rel == p {
			return true
		}
	}
	return false
}
