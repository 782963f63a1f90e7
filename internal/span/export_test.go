package span

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/storage"
)

// syntheticTimeline builds a small fixed timeline touching every exporter
// shape: complete spans, async prefetch reads, instants, flow links, labels,
// details, and the system lane.
func syntheticTimeline() *Tracer {
	tr := New()
	tr.SetQuery(0)
	q0 := tr.BeginLabel(QuerySpan, "t91#0/0", storage.PageID{}, 0)
	tr.Complete(InferWait, storage.PageID{}, 0, 500_000)
	pf := tr.Begin(PrefetchRead, pg(7, 11), 500_000)
	d := tr.Begin(ExecDiskWait, pg(3, 2), 100_000)
	tr.End(d, 1_100_000)
	tr.Complete(ExecOSCopy, pg(3, 2), 1_100_000, 1_104_000)
	tr.End(pf, 1_500_000)
	tr.Stash(pg(7, 11), pf)
	tr.Record(obs.Event{Kind: obs.PrefetchHit, Query: 0, Page: pg(7, 11), At: 1_600_000})
	pf2 := tr.Begin(PrefetchRead, pg(7, 12), 700_000)
	tr.EndDetail(pf2, 1_300_000, DetailAbandoned)
	tr.Stash(pg(7, 12), pf2)
	tr.Record(obs.Event{Kind: obs.FallbackSyncRead, Query: 0, Page: pg(7, 12), At: 1_700_000})
	tr.Record(obs.Event{Kind: obs.WindowStall, Query: 0, At: 800_000})
	tr.End(q0, 2_000_000)
	tr.Record(obs.Event{Kind: obs.InferenceDeadlineMiss, Query: obs.NoQuery, At: 50_000})
	return tr
}

// TestExportChromeGolden pins the exporter's byte-exact output; any field
// reorder, numeric reformat, or lane renumbering fails here. Regenerate with
// UPDATE_GOLDEN=1.
func TestExportChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportChrome(&buf, syntheticTimeline().Spans()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := filepath.Join("testdata", "synthetic.trace.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace JSON diverged from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExportChromeIsValidJSON parses the export with encoding/json and
// checks the trace-event envelope: every event has a phase, pid, and name,
// and the async begin/end events pair up.
func TestExportChromeIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportChrome(&buf, syntheticTimeline().Spans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	asyncB, asyncE := 0, 0
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Errorf("event without phase: %v", ev)
		}
		if _, ok := ev["pid"]; !ok {
			t.Errorf("event without pid: %v", ev)
		}
		switch ph {
		case "b":
			asyncB++
		case "e":
			asyncE++
		}
	}
	if asyncB != 2 || asyncB != asyncE {
		t.Errorf("async pairs: %d begins, %d ends (want 2 each)", asyncB, asyncE)
	}
}

// TestExportChromeDeterministic: two exports of the same spans are
// byte-identical (the map used for lane discovery must not leak order).
func TestExportChromeDeterministic(t *testing.T) {
	spans := syntheticTimeline().Spans()
	var a, b bytes.Buffer
	if err := ExportChrome(&a, spans); err != nil {
		t.Fatal(err)
	}
	if err := ExportChrome(&b, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exports of the same spans differ")
	}
}

// TestUsec pins the fractional-microsecond timestamp format.
func TestUsec(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0.000"},
		{999, "0.999"},
		{1000, "1.000"},
		{1_234_567, "1234.567"},
		{-1500, "-1.500"},
	}
	for _, c := range cases {
		if got := usec(c.ns); got != c.want {
			t.Errorf("usec(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}

// TestWriteTextDeterministic: the stall report text renders identically
// across runs and resolves object names through the callback.
func TestWriteTextDeterministic(t *testing.T) {
	rep := BuildReport(syntheticTimeline().Spans())
	name := func(id storage.ObjectID) string {
		if id == 7 {
			return "catalog_returns"
		}
		return ""
	}
	var a, b bytes.Buffer
	if err := rep.WriteText(&a, name); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteText(&b, name); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders differ")
	}
	if !bytes.Contains(a.Bytes(), []byte("catalog_returns")) {
		t.Errorf("report does not resolve object names:\n%s", a.String())
	}
	if !bytes.Contains(a.Bytes(), []byte("t91#0/0")) {
		t.Errorf("report does not carry query labels:\n%s", a.String())
	}
}
