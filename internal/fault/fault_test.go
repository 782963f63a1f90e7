package fault

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var i *Injector
	for s := Site(0); s < SiteCount; s++ {
		if i.Fire(s) {
			t.Fatalf("nil injector fired at %v", s)
		}
	}
	if i.ReadLatency(time.Millisecond) != time.Millisecond {
		t.Fatal("nil injector spiked a read")
	}
}

func TestZeroPlanDrawsNothing(t *testing.T) {
	i := New(Plan{}, 42)
	for n := 0; n < 1000; n++ {
		for s := Site(0); s < SiteCount; s++ {
			if i.Fire(s) {
				t.Fatalf("zero plan fired at %v", s)
			}
		}
	}
	// The streams never advanced: they are bit-identical to a fresh injector's.
	j := New(Plan{}, 42)
	for s := range i.rngs {
		if i.rngs[s].Uint64() != j.rngs[s].Uint64() {
			t.Fatal("zero-rate Fire advanced a stream")
		}
	}
}

func TestFireDeterministicAndRateShaped(t *testing.T) {
	plan := Plan{ExecReadRate: 0.3, PrefetchReadRate: 0.05}
	a := New(plan, 7)
	b := New(plan, 7)
	fires := 0
	const n = 20000
	for k := 0; k < n; k++ {
		fa := a.Fire(ExecRead)
		if fb := b.Fire(ExecRead); fa != fb {
			t.Fatalf("same plan+seed diverged at draw %d", k)
		}
		if fa {
			fires++
		}
	}
	got := float64(fires) / n
	if got < 0.27 || got > 0.33 {
		t.Fatalf("exec fire rate %.3f, want ≈0.30", got)
	}
}

func TestSitesAreIndependentStreams(t *testing.T) {
	// Same seed, but plan B additionally draws heavily at PrefetchRead;
	// the ExecRead decision sequence must be unchanged.
	a := New(Plan{ExecReadRate: 0.5}, 11)
	b := New(Plan{ExecReadRate: 0.5, PrefetchReadRate: 0.9}, 11)
	for k := 0; k < 5000; k++ {
		b.Fire(PrefetchRead) // extra draws on another site
		if a.Fire(ExecRead) != b.Fire(ExecRead) {
			t.Fatalf("prefetch draws perturbed exec stream at %d", k)
		}
	}
}

func TestReadLatency(t *testing.T) {
	i := New(Plan{LatencySpikeRate: 1, LatencyMultiplier: 4}, 9)
	if got := i.ReadLatency(time.Millisecond); got != 4*time.Millisecond {
		t.Fatalf("spiked latency %v, want 4ms", got)
	}
	quiet := New(Plan{}, 9)
	if got := quiet.ReadLatency(time.Millisecond); got != time.Millisecond {
		t.Fatalf("unspiked latency %v, want 1ms", got)
	}
	// Default multiplier fills to 8×.
	d := New(Plan{LatencySpikeRate: 1}, 9)
	if got := d.ReadLatency(time.Millisecond); got != 8*time.Millisecond {
		t.Fatalf("default multiplier latency %v, want 8ms", got)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	p, err := ParsePlan("exec=0.01,prefetch=0.05, latency=0.02 ,infer=0.1,serve=0.2,mult=16")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		ExecReadRate: 0.01, PrefetchReadRate: 0.05, LatencySpikeRate: 0.02,
		InferenceRate: 0.1, ServeRate: 0.2, LatencyMultiplier: 16,
	}
	if p.ExecReadRate != want.ExecReadRate || p.PrefetchReadRate != want.PrefetchReadRate ||
		p.LatencySpikeRate != want.LatencySpikeRate || p.InferenceRate != want.InferenceRate ||
		p.ServeRate != want.ServeRate || p.LatencyMultiplier != want.LatencyMultiplier {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if empty, err := ParsePlan("  "); err != nil || !empty.IsZero() {
		t.Fatalf("empty plan: %+v, %v", empty, err)
	}
	for _, bad := range []string{"exec", "exec=x", "bogus=0.1", "exec=1.5", "mult=-1"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) did not error", bad)
		}
	}
}

// TestParsePlanReplicaSite: the serving tier runs one model per generation,
// so there is no replica to target and the old replica keys are unknown.
func TestParsePlanReplicaSite(t *testing.T) {
	for _, bad := range []string{"replica=1", "replica=1,replica-id=2", "replica-id=0", "serve=1,replica=0"} {
		if _, err := ParsePlan(bad); err == nil || !strings.Contains(err.Error(), "unknown plan key") {
			t.Fatalf("ParsePlan(%q) = %v, want an unknown-key error", bad, err)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Plan{ExecReadRate: 0.5, ServeRate: 1, LatencyMultiplier: 8}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Plan{
		{ExecReadRate: -0.1},
		{ServeRate: 1.1},
		{LatencyMultiplier: -2},
		{ExecReadRate: math.NaN()},
		{LatencyMultiplier: math.Inf(1)},
		{LatencyMultiplier: math.NaN()},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("plan %+v validated", bad)
		}
	}
}

func TestPlanString(t *testing.T) {
	if s := (Plan{}).String(); s != "none" {
		t.Fatalf("zero plan renders %q", s)
	}
	p := Plan{ExecReadRate: 0.01, LatencyMultiplier: 8}
	if s := p.String(); s != "exec=0.01,mult=8" {
		t.Fatalf("plan renders %q", s)
	}
}

// FuzzParsePlan drives arbitrary strings through the CLI plan parser: it must
// reject garbage with an error, never panic, and every plan it accepts must
// have finite rates in [0, 1] and a finite multiplier ≥ 0 — what New and
// ReadLatency rely on. The replica seeds name keys the parser refuses.
func FuzzParsePlan(f *testing.F) {
	f.Add("exec=0.01,prefetch=0.05,latency=0.02,mult=8")
	f.Add("replica=1,replica-id=1")
	f.Add("serve=1,infer=0.5")
	f.Add("")
	f.Add("exec=1e-300,mult=1e308")
	f.Add("replica-id=9223372036854775807")

	f.Fuzz(func(t *testing.T, in string) {
		p, err := ParsePlan(in)
		if err != nil {
			return
		}
		for _, r := range []float64{p.ExecReadRate, p.PrefetchReadRate, p.LatencySpikeRate, p.InferenceRate, p.ServeRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParsePlan(%q) accepted rate %g", in, r)
			}
		}
		if m := p.LatencyMultiplier; !(m >= 0) || math.IsInf(m, 0) {
			t.Fatalf("ParsePlan(%q) accepted multiplier %g", in, m)
		}
		New(p, 1) // panics on a plan Validate rejects
	})
}
