package main

import (
	"bytes"
	"os"
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

// TestOutputGolden: the command's whole output, byte for byte, against
// recorded runs: one whose per-object previews are all short (t91) and one
// that elides long ones (t18).
func TestOutputGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"t91-sf4-instance3", []string{"-template", "t91", "-sf", "4", "-instance", "3"}},
		{"t18-sf20-instance1", []string{"-template", "t18", "-sf", "20", "-instance", "1"}},
	} {
		want, err := os.ReadFile("testdata/" + c.golden + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit code %d, stderr:\n%s", c.golden, code, stderr.String())
		}
		if got := stdout.String(); got != string(want) {
			t.Errorf("%s: output differs from the golden\ngot:\n%s\nwant:\n%s", c.golden, got, want)
		}
	}
}
