package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadArgumentsRejectedBeforeWork: a count or scale factor below one, an
// unknown mode or an unknown template fails the command before the database is built, so
// nothing reaches stdout.
func TestBadArgumentsRejectedBeforeWork(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "-1"},
		{"-n", "0"},
		{"-n", "-3"},
		{"-sf", "0"},
		{"-sf", "-1"},
		{"-mode", "pythia", "-train", "-1"},
		{"-train", "0"},
		{"-mode", "orcl"},
		{"-template", "t99"},
		{"-template", "t91,t18"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-out", ""), &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit code 0, want non-zero", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: output before the arguments were rejected:\n%s", args, stdout.String())
		}
		if !strings.HasPrefix(stderr.String(), "pythia-timeline: ") {
			t.Errorf("%v: stderr %q does not say why", args, stderr.String())
		}
	}
}

// totalRow returns the quality report's "total" row split into fields.
func totalRow(t *testing.T, out string) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 9 && f[0] == "total" {
			return f
		}
	}
	t.Fatalf("no quality total row in:\n%s", out)
	return nil
}

// TestOracleQualityIsPerfect: the oracle prefetches exactly each query's true
// pages, so the quality report read from the same run as the stall table
// scores precision and recall 1.
func TestOracleQualityIsPerfect(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "oracle", "-sf", "2", "-n", "2", "-out", ""}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	stall := strings.Index(out, "Per-query stall attribution")
	table := strings.Index(out, "workload    queries  precision")
	if stall < 0 || table < stall {
		t.Fatalf("want the stall report, then the quality table:\n%s", out)
	}
	if !strings.Contains(out, "\ndrift: state=ok ") {
		t.Errorf("no drift line:\n%s", out)
	}
	total := totalRow(t, out)
	if total[1] != "2" || total[2] != "1.0000" || total[3] != "1.0000" {
		t.Errorf("total row %v, want 2 queries at precision and recall 1.0000", total)
	}
}

// TestMinRecallGateFailsAfterReport: with no prefetching recall is 0, so
// -min-recall 0.1 fails the run, after the full report is printed.
func TestMinRecallGateFailsAfterReport(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-mode", "none", "-sf", "2", "-n", "2", "-min-recall", "0.1", "-out", ""}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("exit code 0, want the recall gate to fail the run")
	}
	if total := totalRow(t, stdout.String()); total[3] != "0.0000" {
		t.Errorf("total row %v, want recall 0.0000", total)
	}
	if !strings.Contains(stderr.String(), "-min-recall") {
		t.Errorf("stderr %q does not name the gate", stderr.String())
	}
}
