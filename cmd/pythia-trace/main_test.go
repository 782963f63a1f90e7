package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadArgumentsRejectedBeforeWork: an unknown template, a list of them, a
// negative instance or a scale factor below one fails the command before anything is generated, with a
// message on stderr (naming the valid templates for a bad one) and nothing
// on stdout.
func TestBadArgumentsRejectedBeforeWork(t *testing.T) {
	for _, args := range [][]string{
		{"-template", "t99"},
		{"-template", "t91,t18"},
		{"-template", ""},
		{"-instance", "-1"},
		{"-sf", "0"},
		{"-sf", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit code 0, want non-zero", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: output before the arguments were rejected:\n%s", args, stdout.String())
		}
		if !strings.HasPrefix(stderr.String(), "pythia-trace: ") {
			t.Errorf("%v: stderr %q does not say why", args, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	run([]string{"-template", "t99"}, &stdout, &stderr)
	for _, tpl := range []string{"t18", "t19", "t91"} {
		if !strings.Contains(stderr.String(), tpl) {
			t.Errorf("stderr %q does not name the valid template %s", stderr.String(), tpl)
		}
	}
}

// TestTracesOneQuery: a small run prints every section.
func TestTracesOneQuery(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-template", "t18", "-sf", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	for _, section := range []string{"=== t18 instance 0 ===", "physical plan:", "serialized plan (Algorithm 2):", "execution:", "processed trace (Algorithm 1"} {
		if !strings.Contains(stdout.String(), section) {
			t.Errorf("no %q in:\n%s", section, stdout.String())
		}
	}
}
