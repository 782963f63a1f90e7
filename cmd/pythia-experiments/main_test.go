package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestUnknownExperimentRejectedBeforeRunning: an unknown id anywhere in -exp
// fails the command with the valid ids before any experiment runs, so fig6
// prints nothing here.
func TestUnknownExperimentRejectedBeforeRunning(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fast", "-exp", "fig6,fig9x"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("output before the unknown id was rejected:\n%s", stdout.String())
	}
	for _, want := range []string{`"fig9x"`, "fig6", "table1", "ext-chaos"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not name %s", stderr.String(), want)
		}
	}
}

// TestBadArgumentsRejectedBeforeRunning: a negative scale or instance count,
// a malformed, empty, reversed or oversized -seeds range, and -seeds with
// -seed each fail the command before anything runs, naming the flag.
func TestBadArgumentsRejectedBeforeRunning(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-n", "-4"}, "-n"},
		{[]string{"-imdb-n", "-2"}, "-imdb-n"},
		{[]string{"-seeds", "7"}, "-seeds"},
		{[]string{"-seeds", "0-3"}, "-seeds"},
		{[]string{"-seeds", "9-7"}, "-seeds"},
		{[]string{"-seeds", "7-x"}, "-seeds"},
		{[]string{"-seeds", "-7-9"}, "-seeds"},
		{[]string{"-seeds", "1-101"}, "-seeds"},
		{[]string{"-seeds", "7-11", "-seed", "7"}, "-seed"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-fast", "-exp", "table1"}, c.args...), &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit code %d, want 1", c.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: output before the arguments were rejected:\n%s", c.args, stdout.String())
		}
		if !strings.HasPrefix(stderr.String(), "pythia-experiments: "+c.flag) {
			t.Errorf("%v: stderr %q does not name %s", c.args, stderr.String(), c.flag)
		}
	}
}

// TestSeedsMatchSoloRuns: two seeds run concurrently under -seeds print,
// timing lines aside, exactly what -seed prints for each alone, in seed
// order, and then one mean ± s.e. table per experiment. Under -race this is
// also the check that two suites share no state.
func TestSeedsMatchSoloRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	exps := []string{"-fast", "-exp", "fig5,fig6"}
	runOut := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(append(exps, args...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit code %d\n%s", args, code, stderr.String())
		}
		return dropTimings(stdout.String())
	}
	swept := runOut("-seeds", "7-8")
	solo := runOut("-seed", "7") + runOut("-seed", "8")
	if !strings.HasPrefix(swept, solo) {
		t.Fatalf("-seeds 7-8 does not begin with the solo runs\n--- got ---\n%s\n--- want prefix ---\n%s", swept, solo)
	}
	agg := strings.TrimPrefix(swept, solo)
	for _, want := range []string{"2 seeds (7–8)", "== fig5 — ", "== fig6 — ", "seeds 7–8", " ± "} {
		if !strings.Contains(agg, want) {
			t.Errorf("aggregate does not contain %q:\n%s", want, agg)
		}
	}
}

// dropTimings removes the "(… took …)" lines, the output's only wall-clock
// content.
func dropTimings(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if !(strings.HasPrefix(line, "(") && strings.Contains(line, " took ")) {
			b.WriteString(line)
		}
	}
	return b.String()
}
