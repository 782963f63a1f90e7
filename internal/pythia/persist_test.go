package pythia

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/workload"
)

// persistFixture trains one t91 system shared by the round-trip tests —
// training dominates their runtime (especially under -race) and both tests
// only read from the trained system.
var persistFixture struct {
	once sync.Once
	sys  *System
	test []*workload.Instance
}

func trainedSystem(t *testing.T) (*System, []*workload.Instance) {
	t.Helper()
	persistFixture.once.Do(func() {
		s, w := testSystem(t)
		train, test := w.Split(0.15, 3)
		s.Train("t91", train)
		persistFixture.sys = s
		persistFixture.test = test
	})
	if persistFixture.sys == nil {
		t.Fatal("shared persist fixture failed to build")
	}
	return persistFixture.sys, persistFixture.test
}

func TestSaveLoadWorkloadRoundTrip(t *testing.T) {
	s, test := trainedSystem(t)

	var buf bytes.Buffer
	if err := s.SaveWorkload("t91", &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty persisted workload")
	}

	// A fresh system over the same database loads the workload and predicts
	// identically.
	s2 := New(s.DB, s.Config())
	tw, err := s2.LoadWorkload(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tw.Name != "t91" {
		t.Fatalf("loaded workload name %q", tw.Name)
	}
	for _, inst := range test {
		a := s.Prefetch(inst)
		b := s2.Prefetch(inst)
		if len(a) != len(b) {
			t.Fatalf("loaded predictor differs: %d vs %d pages", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("loaded predictor differs in content")
			}
		}
	}
	// Matching metadata survived: an untagged same-relations query matches.
	q := test[0].Query
	q.Template = ""
	if s2.Match(q) != tw {
		t.Fatal("loaded workload does not match by relation set")
	}
}

func TestSaveLoadSystemRoundTrip(t *testing.T) {
	s, test := trainedSystem(t)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty system snapshot")
	}

	// Two independent loads of the same bundle (two successive serving
	// generations) both predict exactly like the system that saved it.
	for copyN := 0; copyN < 2; copyN++ {
		s2, err := LoadSystem(s.DB, s.Config(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(s2.Workloads()) != 1 || s2.Workloads()[0].Name != "t91" {
			t.Fatalf("loaded system workloads wrong: %+v", s2.Workloads())
		}
		// The loaded predictor is an independent instance, not a shared
		// pointer into the source system.
		if s2.Workloads()[0].Pred == s.Workloads()[0].Pred {
			t.Fatal("loaded system shares the saved system's predictor")
		}
		for _, inst := range test {
			a := s.Prefetch(inst)
			b := s2.Prefetch(inst)
			if len(a) != len(b) {
				t.Fatalf("loaded system differs: %d vs %d pages", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatal("loaded system differs in content")
				}
			}
		}
	}
}

func TestLoadSystemGarbageErrors(t *testing.T) {
	s, _ := testSystem(t)
	if _, err := LoadSystem(s.DB, s.Config(), bytes.NewReader([]byte("junk"))); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("loading garbage system snapshot: %v, want ErrSnapshotCorrupt", err)
	}
}

func TestLoadSystemCorruptAndTruncated(t *testing.T) {
	s, _ := trainedSystem(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"zero-length":       {},
		"header-truncated":  good[:7],
		"payload-truncated": good[:len(good)/2],
		"footer-truncated":  good[:len(good)-2],
		"trailing-garbage":  append(append([]byte{}, good...), 0xAA),
	}
	// A single flipped payload bit must trip the CRC footer.
	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 0x01
	cases["bit-flip"] = flipped
	// A declared length near 2⁶⁴ must not wrap into "consistent" (it used to,
	// and the slice expression after it panicked).
	cases["length-overflow"] = append(append([]byte{}, good[:8]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFC)
	// Wrong magic: damage the leading frame bytes.
	wrongMagic := append([]byte{}, good...)
	wrongMagic[0] = 'X'
	cases["bad-magic"] = wrongMagic

	for name, data := range cases {
		if _, err := LoadSystem(s.DB, s.Config(), bytes.NewReader(data)); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Errorf("%s: LoadSystem error %v, want ErrSnapshotCorrupt", name, err)
		}
	}
	// The workload loader shares the frame, so it rejects the same damage.
	if _, err := s.LoadWorkload(bytes.NewReader(nil)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Errorf("LoadWorkload(empty): %v, want ErrSnapshotCorrupt", err)
	}
}

// forgedSnapshot saves s, applies forge to the decoded document and seals the
// result again — length and CRC correct, so only what is below the envelope
// can refuse it.
func forgedSnapshot(t testing.TB, s *System, forge func(*persistedSystem)) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := openEnvelope(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var doc persistedSystem
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	forge(&doc)
	var forged bytes.Buffer
	if err := gob.NewEncoder(&forged).Encode(&doc); err != nil {
		t.Fatal(err)
	}
	return sealed(t, forged.Bytes())
}

// sealed frames payload, whatever it is, with a correct length and CRC.
func sealed(t testing.TB, payload []byte) []byte {
	t.Helper()
	var framed bytes.Buffer
	if err := sealEnvelope(&framed, payload); err != nil {
		t.Fatal(err)
	}
	return framed.Bytes()
}

// refusesVersion: a well-formed envelope of another format version is refused
// with the typed version error — not "corrupt", not a panic in gob, never a
// half-loaded system. Length and CRC cover the payload only, so swapping the
// magic leaves the frame well-formed.
func refusesVersion(t *testing.T, magic string) {
	t.Helper()
	s, _ := trainedSystem(t)
	other := forgedSnapshot(t, s, func(*persistedSystem) {})
	copy(other[:8], magic)
	sys, err := LoadSystem(s.DB, s.Config(), bytes.NewReader(other))
	if !errors.Is(err, ErrSnapshotVersion) || errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("%s snapshot: %v, want ErrSnapshotVersion only", magic, err)
	}
	if sys != nil {
		t.Fatalf("%s snapshot returned a system alongside the error", magic)
	}
	fresh := New(s.DB, s.Config())
	if _, err := fresh.LoadWorkload(bytes.NewReader(other)); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("LoadWorkload(%s): %v, want ErrSnapshotVersion", magic, err)
	}
	if len(fresh.Workloads()) != 0 {
		t.Fatal("a refused workload was registered")
	}
}

// The magic's digits are the only format version: a future one, PYSNAP01 (an
// encoder per object) and PYSNAP02 (one trunk per workload, but four nested
// gob documents) are all refused alike.
func TestLoadSystemVersionMismatch(t *testing.T) { refusesVersion(t, "PYSNAP04") }
func TestLoadSystemRejectsPYSNAP01(t *testing.T) { refusesVersion(t, "PYSNAP01") }
func TestLoadSystemRejectsPYSNAP02(t *testing.T) { refusesVersion(t, "PYSNAP02") }

// TestLoadSystemInconsistentDocument: a snapshot whose envelope is intact
// but whose document contradicts itself is ErrSnapshotCorrupt and no system.
// The first two panicked inside nn before ("model dim must be divisible by
// head count", "negative matrix dimension"); the huge ones must be refused
// before anything of that size is allocated.
func TestLoadSystemInconsistentDocument(t *testing.T) {
	s, _ := trainedSystem(t)
	for name, forge := range map[string]func(*predictor.State){
		"heads do not divide dim":   func(p *predictor.State) { p.Trunk.Cfg.Heads = 5 },
		"negative vocabulary":       func(p *predictor.State) { p.Trunk.VocabSize = -1 },
		"huge dim":                  func(p *predictor.State) { p.Trunk.Cfg.Dim, p.Trunk.Cfg.Heads = 1<<40, 1 },
		"huge layer count":          func(p *predictor.State) { p.Trunk.Cfg.Layers = 1 << 40 },
		"heads without coverage":    func(p *predictor.State) { p.ModelObjs = p.ModelObjs[1:] },
		"vocabulary lost a token":   func(p *predictor.State) { p.VocabTokens = p.VocabTokens[:len(p.VocabTokens)-1] },
		"vocabulary past embedding": func(p *predictor.State) { p.VocabTokens = append(p.VocabTokens, "v:unseen") },
		"vocabulary lost its head":  func(p *predictor.State) { p.VocabTokens = p.VocabTokens[1:] },
		"head lost its label space": func(p *predictor.State) { p.Trunk.Heads[0].Labels = nil },
		"encoder lost a tensor":     func(p *predictor.State) { p.Trunk.Encoder = p.Trunk.Encoder[1:] },
		"threshold NaN":             func(p *predictor.State) { p.Trunk.Cfg.Threshold = math.NaN() },
		"threshold above one":       func(p *predictor.State) { p.Trunk.Cfg.Threshold = 2 },
		"learning rate NaN":         func(p *predictor.State) { p.Trunk.Cfg.LR = math.NaN() },
		"positive weight +Inf":      func(p *predictor.State) { p.Trunk.Cfg.PosWeight = math.Inf(1) },
	} {
		data := forgedSnapshot(t, s, func(doc *persistedSystem) { forge(&doc.Workloads[0].Predictor) })
		sys, err := LoadSystem(s.DB, s.Config(), bytes.NewReader(data))
		if !errors.Is(err, ErrSnapshotCorrupt) || sys != nil {
			t.Errorf("%s: LoadSystem = %v, %v; want no system and ErrSnapshotCorrupt", name, sys, err)
		}
	}
}

// TestLoadWorkloadWantsOneWorkload: SaveWorkload and Save write the same
// document, so LoadWorkload reads either as long as it holds one workload.
func TestLoadWorkloadWantsOneWorkload(t *testing.T) {
	s, _ := trainedSystem(t)
	one := forgedSnapshot(t, s, func(*persistedSystem) {})
	fresh := New(s.DB, s.Config())
	if tw, err := fresh.LoadWorkload(bytes.NewReader(one)); err != nil || tw.Name != "t91" {
		t.Fatalf("LoadWorkload(system snapshot of one workload) = %v, %v", tw, err)
	}
	two := forgedSnapshot(t, s, func(doc *persistedSystem) { doc.Workloads = append(doc.Workloads, doc.Workloads[0]) })
	if _, err := fresh.LoadWorkload(bytes.NewReader(two)); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("LoadWorkload(two workloads): %v, want ErrSnapshotCorrupt", err)
	}
	if len(fresh.Workloads()) != 1 {
		t.Fatalf("%d workloads registered, want the first load's one", len(fresh.Workloads()))
	}
}

// TestSnapshotBytesDeterministic: training twice from one seed writes
// byte-identical PYSNAP03 files, at GOMAXPROCS 1, 2 and 4 — joint training
// runs a group's samples on as many views as there are cores but merges
// each parameter's gradients in sample order, and weights are persisted as
// ordered lists.
// TrainTime, the snapshot's one wall-clock field, is zeroed before saving.
// One document in one frame: the magic appears once, not once per workload.
func TestSnapshotBytesDeterministic(t *testing.T) {
	snapshot := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, w := testSystem(t)
		train, _ := w.Split(0.15, 3)
		s.cfg.Predictor.Model.Epochs = 3
		s.Train("t91", train[:12]).Pred.TrainTime = 0
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := snapshot(1)
	if string(want[:8]) != "PYSNAP03" || bytes.Count(want, []byte("PYSNAP")) != 1 {
		t.Fatalf("snapshot starts %q and holds %d magics, want PYSNAP03 once", want[:8], bytes.Count(want, []byte("PYSNAP")))
	}
	for _, procs := range []int{1, 2, 4} {
		if got := snapshot(procs); !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d: snapshot of %d bytes differs from the first of %d", procs, len(got), len(want))
		}
	}
}

func TestSaveFileAtomicRoundTrip(t *testing.T) {
	s, test := trainedSystem(t)
	path := filepath.Join(t.TempDir(), "snap.bin")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwriting an existing snapshot goes through the same temp+rename
	// path; afterwards no temp residue remains.
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.bin" {
		t.Fatalf("snapshot dir has residue: %v", entries)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s2, err := LoadSystem(s.DB, s.Config(), f)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range test[:3] {
		a, b := s.Prefetch(inst), s2.Prefetch(inst)
		if len(a) != len(b) {
			t.Fatalf("SaveFile round trip differs: %d vs %d pages", len(a), len(b))
		}
	}
}

func TestSaveUnknownWorkloadErrors(t *testing.T) {
	s, _ := testSystem(t)
	var buf bytes.Buffer
	if err := s.SaveWorkload("nope", &buf); err == nil {
		t.Fatal("saving unknown workload did not error")
	}
}

func TestLoadGarbageErrors(t *testing.T) {
	s, _ := testSystem(t)
	if _, err := s.LoadWorkload(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("loading garbage did not error")
	}
}

func TestPredictorUpdateImproves(t *testing.T) {
	s, w := testSystem(t)
	// Train on a sliver, then incrementally update with the rest; accuracy
	// on held-out queries should not get worse and typically improves.
	train, test := w.Split(0.15, 3)
	tiny := train[:8]
	rest := train[8:]
	tw := s.Train("t91", tiny)

	scoreSum := func() float64 {
		total := 0.0
		for _, inst := range test {
			pred := s.Prefetch(inst)
			inter := 0
			truth := map[string]bool{}
			for _, p := range inst.Pages {
				truth[p.String()] = true
			}
			for _, p := range pred {
				if truth[p.String()] {
					inter++
				}
			}
			denom := len(pred) + len(inst.Pages)
			if denom > 0 {
				total += 2 * float64(inter) / float64(denom)
			}
		}
		return total
	}
	before := scoreSum()
	var samples []predictor.TrainSample
	for _, inst := range rest {
		samples = append(samples, predictor.TrainSample{Plan: inst.Plan, Pages: inst.Pages})
	}
	tw.Pred.Update(samples, 10)
	after := scoreSum()
	if after < before-0.3 {
		t.Fatalf("incremental update degraded accuracy: %.3f -> %.3f", before, after)
	}
}
