package experiments

import (
	"sort"
	"sync"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/imdb"
	"github.com/pythia-db/pythia/internal/metrics"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/replay"
	"github.com/pythia-db/pythia/internal/workload"
)

// Config scales the experiment suite. The defaults regenerate every figure
// in a few minutes on CPU; tests use Fast() for second-scale runs. Paper
// counts (1000 instances per DSB template, 3000 for IMDB, SF 100) are
// reachable by raising these knobs.
type Config struct {
	// Scale is the DSB scale factor used by the main experiments; Figure
	// 12a additionally sweeps {Scale/4, Scale/2, Scale}.
	Scale int
	// IMDBScale scales the IMDB schema.
	IMDBScale int
	// PerTemplate is the number of query instances per DSB template.
	PerTemplate int
	// IMDBInstances is the number of template-1a instances.
	IMDBInstances int
	// TestFraction of instances held out as unseen queries (paper: 5%).
	TestFraction float64
	// SpeedupQueries caps how many held-out queries each speedup experiment
	// replays (replays are cheap but not free).
	SpeedupQueries int
	// Model configures Pythia's classifiers.
	Model model.Config
	// BufferPages sizes the pool for the main experiments; zero derives
	// ~1.5% of the database (the paper sizes the buffer at ~1% of data).
	BufferPages int
	// Seed drives everything.
	Seed uint64
	// FaultPlan, when non-zero, runs every experiment's replays under
	// deterministic fault injection (the ext-chaos experiment sweeps its
	// own plans regardless). See internal/fault.
	FaultPlan fault.Plan
	// FaultSeed seeds the fault injector (independent of Seed so fault
	// timelines can be varied without regenerating workloads).
	FaultSeed uint64
}

// DefaultConfig is the reference configuration for the harness.
func DefaultConfig() Config {
	m := model.DefaultConfig()
	m.Dim = 24
	m.Heads = 4
	m.Layers = 2
	m.DecoderHidden = 48
	m.Epochs = 40
	return Config{
		Scale:          40,
		IMDBScale:      30,
		PerTemplate:    120,
		IMDBInstances:  60,
		TestFraction:   0.15,
		SpeedupQueries: 8,
		Model:          m,
		Seed:           7,
	}
}

// Fast returns a configuration small enough for unit tests.
func Fast() Config {
	c := DefaultConfig()
	c.Scale = 8
	c.IMDBScale = 8
	c.PerTemplate = 48
	c.IMDBInstances = 28
	c.TestFraction = 0.2
	c.SpeedupQueries = 3
	c.Model.Dim = 16
	c.Model.Heads = 2
	c.Model.Layers = 1
	c.Model.DecoderHidden = 32
	c.Model.Epochs = 30
	return c
}

// split is one workload's train/test partition.
type split struct {
	all   *workload.Workload
	train []*workload.Instance
	test  []*workload.Instance
}

// Suite lazily builds and caches the expensive artifacts (databases,
// workloads, trained systems) shared by the experiments.
type Suite struct {
	cfg Config

	mu       sync.Mutex
	gen      *dsb.Generator
	imdbGen  *imdb.Generator
	splits   map[string]*split
	dsbSys   *pythia.System
	imdbSys  *pythia.System
	trainedD map[string]bool
	trainedI bool
}

// NewSuite returns a suite over cfg.
func NewSuite(cfg Config) *Suite {
	if cfg.PerTemplate <= 0 {
		cfg = DefaultConfig()
	}
	return &Suite{
		cfg:      cfg,
		splits:   map[string]*split{},
		trainedD: map[string]bool{},
	}
}

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

// Templates lists the DSB templates under study.
func (s *Suite) Templates() []string { return []string{"t18", "t19", "t91"} }

func (s *Suite) generator() *dsb.Generator {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen == nil {
		s.gen = dsb.NewGenerator(dsb.Config{ScaleFactor: s.cfg.Scale, Seed: s.cfg.Seed})
	}
	return s.gen
}

func (s *Suite) imdbGenerator() *imdb.Generator {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.imdbGen == nil {
		s.imdbGen = imdb.NewGenerator(imdb.Config{Scale: s.cfg.IMDBScale, Seed: s.cfg.Seed})
	}
	return s.imdbGen
}

// Split builds (once) and returns the named workload's train/test split.
// Names: t18, t19, t91, imdb1a.
func (s *Suite) Split(name string) *split {
	g := s.generator() // outside the lock: may build the DB
	ig := s.imdbGenerator()
	s.mu.Lock()
	defer s.mu.Unlock()
	if sp, ok := s.splits[name]; ok {
		return sp
	}
	var w *workload.Workload
	if name == "imdb1a" {
		w = ig.Workload(s.cfg.IMDBInstances, s.cfg.Seed+101)
	} else {
		w = g.Workload(name, s.cfg.PerTemplate, s.cfg.Seed+11)
	}
	train, test := w.Split(s.cfg.TestFraction, s.cfg.Seed+23)
	sp := &split{all: w, train: train, test: test}
	s.splits[name] = sp
	return sp
}

// predictorOptions builds the standard training options.
func (s *Suite) predictorOptions() predictor.Options {
	return predictor.Options{Model: s.cfg.Model, ObservedOnly: true}
}

// ablationOptions is predictorOptions at half the training epochs: the
// Figure 12 ablations retrain t18 many times and compare configurations
// *against each other*, so a consistent reduced budget preserves their
// shape while keeping the suite's total training cost bounded.
func (s *Suite) ablationOptions() predictor.Options {
	o := s.predictorOptions()
	o.Model.Epochs = o.Model.Epochs / 2
	if o.Model.Epochs < 10 {
		o.Model.Epochs = 10
	}
	return o
}

// bufferPages derives the pool size from the database (≈1.5% of data, after
// the paper's ~1% guideline, floored to keep the pool useful at tiny test
// scales).
func (s *Suite) bufferPages() int {
	if s.cfg.BufferPages > 0 {
		return s.cfg.BufferPages
	}
	p := s.generator().DB().Registry.TotalPages() * 3 / 200
	if p < 256 {
		p = 256
	}
	return p
}

// DSBSystem returns the shared DSB Pythia system with the named templates
// trained (each trained at most once).
func (s *Suite) DSBSystem(templates ...string) *pythia.System {
	// Resolve splits first: Split takes the lock itself.
	splits := map[string]*split{}
	for _, tpl := range templates {
		splits[tpl] = s.Split(tpl)
	}
	bufPages := s.bufferPages()
	s.mu.Lock()
	if s.dsbSys == nil {
		cfg := pythia.DefaultConfig()
		cfg.Predictor = s.predictorOptions()
		cfg.Replay = replay.Config{BufferPages: bufPages, Fault: s.faultInjector()}
		s.dsbSys = pythia.New(s.gen.DB(), cfg)
	}
	sys := s.dsbSys
	var toTrain []string
	for _, tpl := range templates {
		if !s.trainedD[tpl] {
			s.trainedD[tpl] = true
			toTrain = append(toTrain, tpl)
		}
	}
	s.mu.Unlock()
	sort.Strings(toTrain)
	for _, tpl := range toTrain {
		sys.Train(tpl, splits[tpl].train)
	}
	return sys
}

// IMDBSystem returns the IMDB Pythia system with template 1a trained.
func (s *Suite) IMDBSystem() *pythia.System {
	sp := s.Split("imdb1a")
	s.mu.Lock()
	if s.imdbSys == nil {
		cfg := pythia.DefaultConfig()
		cfg.Predictor = s.predictorOptions()
		// The IMDB buffer is sized so the big instances' predictions
		// overflow it — the limited-prefetching regime (§5.1).
		cfg.Replay = replay.Config{
			BufferPages: s.imdbGen.DB().Registry.TotalPages() / 12,
			Fault:       s.faultInjector(),
		}
		s.imdbSys = pythia.New(s.imdbGen.DB(), cfg)
	}
	sys := s.imdbSys
	train := !s.trainedI
	s.trainedI = true
	s.mu.Unlock()
	if train {
		sys.Train("imdb1a", sp.train)
	}
	return sys
}

// system returns the shared system with the named workload trained: the
// IMDB system for imdb1a, the DSB system for a template.
func (s *Suite) system(name string) *pythia.System {
	if name == "imdb1a" {
		return s.IMDBSystem()
	}
	return s.DSBSystem(name)
}

// faultInjector builds the config-level injector, or nil when no plan is
// set.
func (s *Suite) faultInjector() *fault.Injector {
	if s.cfg.FaultPlan.IsZero() {
		return nil
	}
	return fault.New(s.cfg.FaultPlan, s.cfg.FaultSeed)
}

// speedupSample returns up to SpeedupQueries test instances for a workload.
func (s *Suite) speedupSample(name string) []*workload.Instance {
	test := s.Split(name).test
	if len(test) > s.cfg.SpeedupQueries {
		test = test[:s.cfg.SpeedupQueries]
	}
	return test
}

// meanSpeedups replays a workload's speedup sample cold under each strategy
// and returns each strategy's mean speedup. Strategies alternate query by
// query: under a config-level fault plan every replay draws from one shared
// injector, and this order fixes which draws each replay gets.
func (s *Suite) meanSpeedups(sys *pythia.System, name string, strategies ...pythia.PrefetchFunc) []float64 {
	sps := make([][]float64, len(strategies))
	for _, inst := range s.speedupSample(name) {
		for i, f := range strategies {
			sps[i] = append(sps[i], sys.SpeedupColdCache(inst, f))
		}
	}
	means := make([]float64, len(sps))
	for i, sp := range sps {
		means[i] = metrics.Summarize(sp).Mean
	}
	return means
}
