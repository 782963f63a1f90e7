package fault

import (
	"math"
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
	i := New(Plan{LatencySpikeRate: 1}, 9)
	if got := i.ReadLatency(time.Millisecond); got != 8*time.Millisecond {
		t.Fatalf("spiked latency %v, want 8ms", got)
	}
	quiet := New(Plan{}, 9)
	if got := quiet.ReadLatency(time.Millisecond); got != time.Millisecond {
		t.Fatalf("unspiked latency %v, want 1ms", got)
	}
}

func TestValidate(t *testing.T) {
	good := Plan{ExecReadRate: 0.5, ServeRate: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Plan{
		{ExecReadRate: -0.1},
		{ServeRate: 1.1},
		{ExecReadRate: math.NaN()},
		{LatencySpikeRate: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("plan %+v validated", bad)
		}
	}
}
