package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// The fixture harness runs the full analyzer suite over golden packages
// under testdata/src/<name> and checks the diagnostics against expectation
// comments in the fixture source:
//
//	rows = append(rows, k) // want "append to rows inside range over map"
//
// Each `// want "re" ["re" ...]` comment expects, on its own line, one
// diagnostic matching each quoted regular expression — no more, no fewer.
// A fixture whose directory name ends in "nondet" is analyzed as a
// non-deterministic package (the deterministic-only analyzers must stay
// silent there); every other fixture is analyzed as deterministic.
// TestFixtures runs this.

// FixtureReport is the outcome of one fixture package.
type FixtureReport struct {
	Name     string
	Problems []string
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// RunFixtures checks every fixture package under testdataDir/src, returning
// one report per fixture in name order.
func RunFixtures(root, modulePath, testdataDir string) ([]FixtureReport, error) {
	srcDir := filepath.Join(testdataDir, "src")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		return nil, err
	}
	relTestdata, err := filepath.Rel(root, testdataDir)
	if err != nil {
		return nil, err
	}
	loader := NewLoader(root, modulePath)
	var reports []FixtureReport
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		path := modulePath + "/" + filepath.ToSlash(relTestdata) + "/src/" + name
		report := FixtureReport{Name: name}
		pkg, err := loader.Load(path)
		if err != nil {
			report.Problems = append(report.Problems, fmt.Sprintf("load: %v", err))
			reports = append(reports, report)
			continue
		}
		pkg.Deterministic = !strings.HasSuffix(name, "nondet")
		report.Problems = checkFixture(pkg)
		reports = append(reports, report)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Name < reports[j].Name })
	return reports, nil
}

// wantEntry is one expected-diagnostic regexp at a file:line.
type wantEntry struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

// checkFixture runs the suite over one loaded fixture and reconciles
// diagnostics with want comments.
func checkFixture(pkg *Package) []string {
	var problems []string
	wants := map[string][]*wantEntry{} // "file:line" → expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						problems = append(problems, fmt.Sprintf("%s: bad want regexp %q: %v", key, arg[1], err))
						continue
					}
					wants[key] = append(wants[key], &wantEntry{re: re, raw: arg[1]})
				}
			}
		}
	}

	for _, d := range RunAll(pkg) {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("%s: unexpected diagnostic [%s] %s", key, d.Analyzer, d.Message))
		}
	}
	keys := make([]string, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				problems = append(problems, fmt.Sprintf("%s: expected diagnostic matching %q was not reported", k, w.raw))
			}
		}
	}
	return problems
}
