package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixtures runs the analyzer suite over every golden fixture package
// under testdata/src and reconciles diagnostics with the // want comments —
// one fixture per analyzer, a nondet fixture proving the deterministic-only
// analyzers stay silent elsewhere, and a buildtags fixture whose files only
// type-check once build constraints are applied.
func TestFixtures(t *testing.T) {
	root, module := moduleRoot(t)
	reports, err := RunFixtures(root, module, filepath.Join(root, "internal", "analysis", "testdata"))
	if err != nil {
		t.Fatalf("RunFixtures: %v", err)
	}
	wantFixtures := map[string]bool{
		"detclock":    false,
		"mapiter":     false,
		"noalloc":     false,
		"errdiscard":  false,
		"clocknondet": false,
		"goleak":      false,
		"buildtags":   false,
	}
	for _, r := range reports {
		if _, ok := wantFixtures[r.Name]; ok {
			wantFixtures[r.Name] = true
		}
		for _, p := range r.Problems {
			t.Errorf("fixture %s: %s", r.Name, p)
		}
	}
	for name, seen := range wantFixtures {
		if !seen {
			t.Errorf("fixture %s missing from testdata/src", name)
		}
	}
}

// TestSeededViolations builds a scratch module shaped like this repo and
// seeds one deliberate violation per analyzer — wall-clock in internal/sim,
// a map-range feeding an event append in internal/replay, an allocation
// inside a //pythia:noalloc function in internal/nn, a discarded
// Planner.Plan error, and an unbounded goroutine — then asserts each is
// reported with its file:line. The goleak-ok escape is exercised alongside
// its violation: the suppressed twin must stay silent while the seeded site
// is still reported.
func TestSeededViolations(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/seeded\n\ngo 1.22\n",
		"internal/sim/clock.go": `package sim

import "time"

// Now leaks the wall clock into the virtual-time engine.
func Now() int64 {
	return time.Now().UnixNano() // MARK:detclock
}
`,
		"internal/replay/emit.go": `package replay

// Log is an append-only event log.
type Log struct{ events []int }

// Record appends one event.
func (l *Log) Record(e int) { l.events = append(l.events, e) }

// Flush emits pending entries in map order.
func Flush(pending map[int]int, l *Log) {
	for k := range pending {
		l.Record(k) // MARK:mapiter
	}
}
`,
		"internal/nn/hot.go": `package nn

// Scratch returns a fresh buffer.
//
//pythia:noalloc
func Scratch() *[4]float64 {
	return &[4]float64{} // MARK:noalloc
}
`,
		"internal/plan/plan.go": `package plan

import "errors"

// Node is a plan node.
type Node struct{}

// Query is a query.
type Query struct{}

// Planner plans queries.
type Planner struct{}

// Plan may fail.
func (p *Planner) Plan(q Query) (*Node, error) { return nil, errors.New("no") }
`,
		"caller/caller.go": `package caller

import "example.com/seeded/internal/plan"

// Drop throws the planner error away.
func Drop(pl *plan.Planner, q plan.Query) *plan.Node {
	n, _ := pl.Plan(q) // MARK:errdiscard
	return n
}
`,
		"internal/srv/spawn.go": `package srv

// Spin leaks a goroutine with no cancellation path.
func Spin() {
	go func() { // MARK:goleak
		for {
		}
	}()
}

// SpinQuiet is the suppressed twin, using the statement-scoped escape.
func SpinQuiet() {
	//pythia:goleak-ok seeded: proving the statement escape silences only this spawn
	go func() {
		for {
		}
	}()
}
`,
	}
	for name, content := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	loader := NewLoader(dir, "example.com/seeded")
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	var diags []Diagnostic
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("Load %s: %v", path, err)
		}
		pkg.Deterministic = IsDeterministic("example.com/seeded", path)
		diags = append(diags, RunAll(pkg)...)
	}

	expect := []struct {
		analyzer string
		file     string
		mark     string
	}{
		{"detclock", "internal/sim/clock.go", "MARK:detclock"},
		{"mapiter", "internal/replay/emit.go", "MARK:mapiter"},
		{"noalloc", "internal/nn/hot.go", "MARK:noalloc"},
		{"errdiscard", "caller/caller.go", "MARK:errdiscard"},
		{"goleak", "internal/srv/spawn.go", "MARK:goleak"},
	}
	if len(diags) != len(expect) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(expect))
	}
	for _, e := range expect {
		wantLine := markLine(t, files[e.file], e.mark)
		found := false
		for _, d := range diags {
			if d.Analyzer != e.analyzer || !strings.HasSuffix(filepath.ToSlash(d.Pos.Filename), e.file) {
				continue
			}
			found = true
			if d.Pos.Line != wantLine {
				t.Errorf("%s: reported at line %d, want %d (%s)", e.analyzer, d.Pos.Line, wantLine, d.Message)
			}
		}
		if !found {
			t.Errorf("%s: seeded violation in %s not reported", e.analyzer, e.file)
		}
	}
}

// TestRepoClean is the CI invariant as a unit test: the whole module must
// run clean under the suite (every real violation has been fixed, every
// sanctioned wall-clock read routed or annotated).
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, module := moduleRoot(t)
	loader := NewLoader(root, module)
	paths, err := loader.ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("Load %s: %v", path, err)
		}
		pkg.Deterministic = IsDeterministic(module, path)
		for _, d := range RunAll(pkg) {
			t.Errorf("%s", d)
		}
	}
}

// TestRosterCoversEveryPackage makes every internal package pick a side:
// it is on the deterministic roster or on this explicit wall-clock list,
// never both and never neither, and the roster names no package that is
// gone. A new package that feeds replay or model state is checked by
// detclock and mapiter from its first commit.
func TestRosterCoversEveryPackage(t *testing.T) {
	root, module := moduleRoot(t)
	wallclock := map[string]bool{
		"internal/serve":       true,
		"internal/wallclock":   true,
		"internal/experiments": true,
		"internal/analysis":    true,
	}
	paths, err := NewLoader(root, module).ModulePackages()
	if err != nil {
		t.Fatalf("ModulePackages: %v", err)
	}
	seen := map[string]bool{}
	for _, path := range paths {
		rel, ok := strings.CutPrefix(path, module+"/")
		if !ok || !strings.HasPrefix(rel, "internal/") {
			continue
		}
		seen[rel] = true
		det := IsDeterministic(module, path)
		switch {
		case det && wallclock[rel]:
			t.Errorf("%s is both on the deterministic roster and on the wall-clock list", rel)
		case !det && !wallclock[rel]:
			t.Errorf("%s is on neither the deterministic roster (config.go) nor the wall-clock list", rel)
		}
	}
	for _, p := range DeterministicPackages {
		if !seen[p] {
			t.Errorf("roster names %s, which is not a package of the module", p)
		}
	}
	for p := range wallclock {
		if !seen[p] {
			t.Errorf("wall-clock list names %s, which is not a package of the module", p)
		}
	}
}

// TestIsDeterministic pins the package split: the simulation core is
// checked, the serving tier and sanctioned wall-clock packages are not.
func TestIsDeterministic(t *testing.T) {
	const m = "github.com/pythia-db/pythia"
	for _, p := range DeterministicPackages {
		if !IsDeterministic(m, m+"/"+p) {
			t.Errorf("IsDeterministic(%s) = false, want true", p)
		}
	}
	for _, p := range []string{"internal/serve", "internal/wallclock", "internal/experiments", "cmd/pythia-serve", "internal/analysis"} {
		if IsDeterministic(m, m+"/"+p) {
			t.Errorf("IsDeterministic(%s) = true, want false", p)
		}
	}
}

// moduleRoot locates the enclosing module from the test's working directory.
func moduleRoot(t *testing.T) (root, module string) {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, module, err = FindModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	return root, module
}

// markLine returns the 1-based line containing the marker.
func markLine(t *testing.T, content, mark string) int {
	t.Helper()
	for i, line := range strings.Split(content, "\n") {
		if strings.Contains(line, mark) {
			return i + 1
		}
	}
	t.Fatalf("marker %s not found", mark)
	return 0
}
