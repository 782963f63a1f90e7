package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// serveSections are the README sections that document pythia-serve and no
// other tool: every flag they name must be one pythia-serve registers.
var serveSections = map[string]bool{
	"### Serving and observability":  true,
	"### Failure ladder":             true,
	"### Zero-downtime model reload": true,
}

// TestReadmeFlagsMatchRegistered keeps README.md and the flag set from
// drifting apart: every registered flag is documented as `-name`, and every
// flag README attributes to pythia-serve — named in a pythia-serve section, or
// passed on a `pythia-serve ...` command line anywhere — is registered.
func TestReadmeFlagsMatchRegistered(t *testing.T) {
	fs := flag.NewFlagSet("pythia-serve", flag.ContinueOnError)
	flags(fs)
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)

	fs.VisitAll(func(f *flag.Flag) {
		// `-name` bare, or `-name VALUE` as examples write it.
		if !strings.Contains(readme, "`-"+f.Name+"`") && !strings.Contains(readme, "`-"+f.Name+" ") {
			t.Errorf("flag -%s is registered but README.md never names it as `-%s`", f.Name, f.Name)
		}
	})

	inline := regexp.MustCompile("`-([a-z][a-z0-9-]*)[ `]")
	word := regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
	inServe := false
	for i, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, "#") {
			inServe = serveSections[line]
		}
		var named []string
		if inServe {
			for _, m := range inline.FindAllStringSubmatch(line, -1) {
				named = append(named, m[1])
			}
		}
		if fields := strings.Fields(line); len(fields) > 0 && fields[0] == "pythia-serve" {
			for _, f := range fields[1:] {
				if m := word.FindStringSubmatch(f); m != nil {
					named = append(named, m[1])
				}
			}
		}
		for _, name := range named {
			if fs.Lookup(name) == nil {
				t.Errorf("README.md:%d names pythia-serve flag -%s, which is not registered", i+1, name)
			}
		}
	}
}

// TestReadmeMetricsExist is the metric half of the README check: every
// `pythia_…` name README.md mentions is a metric family of the committed
// /metrics golden body, with or without a _bucket, _sum or _count suffix; a
// wildcard such as `pythia_drift_*` must match at least one family.
func TestReadmeMetricsExist(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../internal/serve/testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (\S+) `).FindAllSubmatch(golden, -1) {
		families[string(m[1])] = true
	}
	if len(families) == 0 {
		t.Fatal("metrics.golden declares no families")
	}
	for _, name := range regexp.MustCompile(`pythia_[a-z0-9_]+\*?`).FindAllString(string(readme), -1) {
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			found := false
			for f := range families {
				found = found || strings.HasPrefix(f, prefix)
			}
			if !found {
				t.Errorf("README.md names %s, which matches no metric family", name)
			}
			continue
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suffix); ok && families[b] {
				base = b
			}
		}
		if !families[base] {
			t.Errorf("README.md names %s, which is not a metric family in metrics.golden", name)
		}
	}
}

// TestBadArgumentsRejectedBeforeTraining: validate refuses each value main
// would otherwise meet only after training, or never: -n -3 panics in the
// generator, -n 0 serves an untrained model, -sf 0 runs at the generator's
// default scale and a -fault-rate outside [0, 1] panics in fault.New. The
// defaults pass.
func TestBadArgumentsRejectedBeforeTraining(t *testing.T) {
	parse := func(args ...string) *config {
		t.Helper()
		fs := flag.NewFlagSet("pythia-serve", flag.ContinueOnError)
		c := flags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return c
	}
	if _, err := validate(parse()); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, args := range [][]string{
		{"-n", "0"},
		{"-n", "-3"},
		{"-sf", "0"},
		{"-sf", "-1"},
		{"-templates", "t99"},
		{"-queue-depth", "-1"},
		{"-request-timeout", "-1s"},
		{"-pprof", "0.0.0.0:6060"},
		{"-pprof", "nonsense"},
		{"-fault-rate", "1.5"},
		{"-fault-rate", "NaN"},
		{"-fault-rate", "-0.1"},
	} {
		if _, err := validate(parse(args...)); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}
