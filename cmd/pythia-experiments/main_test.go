package main

import (
	"bytes"
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
