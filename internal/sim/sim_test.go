package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestClockBackwardAdvanceToPanics(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v, want 0", c.Now())
	}
	c.AdvanceTo(Time(time.Second))
	if got := c.Now(); got != Time(time.Second) {
		t.Fatalf("AdvanceTo: Now() = %v, want 1s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("backward AdvanceTo did not panic")
		}
	}()
	c.AdvanceTo(Time(time.Millisecond))
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(time.Second)
	b := a.Add(500 * time.Millisecond)
	if b.Sub(a) != 500*time.Millisecond {
		t.Fatalf("Sub = %v, want 500ms", b.Sub(a))
	}
	if !a.Before(b) || !b.After(a) {
		t.Fatal("Before/After disagree with ordering")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRand(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d/1000 equal draws", same)
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(7)
	child := r.Split()
	// Drawing from the child must not perturb the parent's future stream.
	r2 := NewRand(7)
	_ = r2.Split()
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	for i := 0; i < 100; i++ {
		if r.Uint64() != r2.Uint64() {
			t.Fatalf("parent stream perturbed by child draws at %d", i)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(1)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("Intn(10) heavily skewed: value %d drawn %d/10000", v, c)
		}
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(5)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(3)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance = %f, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(9)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / float64(n); math.Abs(mean-1) > 0.05 {
		t.Fatalf("exponential mean = %f, want ~1", mean)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(2*time.Millisecond, func() {
		order = append(order, 2)
		// Nested scheduling during the run.
		e.Schedule(0, func() { order = append(order, 20) })
	})
	end := e.Run()
	want := []int{1, 2, 20, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if end != Time(3*time.Millisecond) {
		t.Fatalf("Run ended at %v, want 3ms", end)
	}
	if e.Steps() != 4 {
		t.Fatalf("Steps = %d, want 4", e.Steps())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", order)
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	for name, schedule := range map[string]func(*Engine, Time, func()){
		"At": (*Engine).At, "Arrive": (*Engine).Arrive,
	} {
		func() {
			e := NewEngine()
			e.Clock.AdvanceTo(Time(time.Second))
			defer func() {
				if recover() == nil {
					t.Errorf("%s in the past did not panic", name)
				}
			}()
			schedule(e, Time(time.Millisecond), func() {})
		}()
	}
}

func TestDiskSerialization(t *testing.T) {
	const lat = 10 * time.Millisecond
	d := NewDisk(1)
	t1 := d.Read(0, lat)
	t2 := d.Read(0, lat)
	t3 := d.Read(t2, lat)
	if t1 != Time(10*time.Millisecond) {
		t.Fatalf("first read done at %v", t1)
	}
	if t2 != Time(20*time.Millisecond) {
		t.Fatalf("second read (queued) done at %v, want 20ms", t2)
	}
	if t3 != Time(30*time.Millisecond) {
		t.Fatalf("third read done at %v, want 30ms", t3)
	}
	if d.Reads() != 3 {
		t.Fatalf("Reads = %d", d.Reads())
	}
}

func TestDiskParallelChannels(t *testing.T) {
	const lat = 10 * time.Millisecond
	d := NewDisk(4)
	var done []Time
	for i := 0; i < 4; i++ {
		done = append(done, d.Read(0, lat))
	}
	for _, dt := range done {
		if dt != Time(10*time.Millisecond) {
			t.Fatalf("parallel reads should all finish at 10ms, got %v", done)
		}
	}
	// Fifth read queues behind one of the four; its own latency starts when
	// that channel frees.
	if d5 := d.Read(0, time.Millisecond); d5 != Time(11*time.Millisecond) {
		t.Fatalf("queued read done at %v, want 11ms", d5)
	}
	if d.Reads() != 5 {
		t.Fatalf("Reads = %d", d.Reads())
	}
}
