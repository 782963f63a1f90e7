package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadArgumentsRejectedBeforeWork: a run that could send nothing, a corpus
// or scale factor below one, a negative rate, a ratio outside its range, a swap or fault timed after
// the load has ended, or a self-hosted-only flag against -target fails the
// command before the corpus is built or a model trained, so nothing reaches
// stdout.
func TestBadArgumentsRejectedBeforeWork(t *testing.T) {
	for _, args := range [][]string{
		{"-duration", "-1s"},
		{"-duration", "0s"},
		{"-qps", "-5"},
		{"-repeat", "3"},
		{"-repeat", "-0.1"},
		{"-swap-at", "1"},
		{"-swap-at", "-0.5"},
		{"-chaos-at", "1.5"},
		{"-chaos-at", "0.5", "-chaos-clear", "0.4"},
		{"-chaos-at", "0.5", "-chaos-clear", "1"},
		{"-chaos-clear", "2"},
		{"-n", "0"},
		{"-n", "-3"},
		{"-sf", "0"},
		{"-sf", "-1"},
		{"-target", "http://localhost:1", "-swap-at", "0.5"},
		{"-target", "http://localhost:1", "-cache-entries", "16"},
		{"-concurrency", "0"},
		{"-templates", "t99"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-out", filepath.Join(t.TempDir(), "r.json")), &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit code 0, want non-zero", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: output before the arguments were rejected:\n%s", args, stdout.String())
		}
		if !strings.HasPrefix(stderr.String(), "pythia-load: ") {
			t.Errorf("%v: stderr %q does not say why", args, stderr.String())
		}
	}
}

// TestSelfHostedRun: a tiny self-hosted run trains, serves, completes
// requests, passes the books check and writes the report.
func TestSelfHostedRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-sf", "2", "-n", "4", "-duration", "300ms", "-concurrency", "2", "-feedback", "0.5", "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if strings.Contains(stdout.String(), "BOOKS:") {
		t.Fatalf("books mismatch on a clean run:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != 0 || rep.StatusCounts["200"] != rep.Requests || rep.Corpus != 4 {
		t.Fatalf("report %+v, want requests all answered 200 over a 4-plan corpus", rep)
	}
}

// TestSelfHostedChaosRun: every inference faults from 0.2 to 0.5 of the run.
// The run still exits 0: each fault answered 200 with the model_error
// fallback, the client counted at least one, the server's model_error events
// match the client's count (no BOOKS: line), and a request sent after the
// clear got a model answer.
func TestSelfHostedChaosRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_load.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-sf", "2", "-n", "4", "-duration", "1s", "-concurrency", "2",
		"-cache-entries", "-1", "-chaos-at", "0.2", "-chaos-clear", "0.5", "-out", out}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if strings.Contains(stdout.String(), "BOOKS:") {
		t.Fatalf("books mismatch on a chaos run:\n%s", stdout.String())
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep loadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ModelErrors == 0 || rep.Errors != 0 || rep.StatusCounts["200"] != rep.Requests {
		t.Fatalf("report %+v, want model_errors >= 1 and every request answered 200", rep)
	}
}
