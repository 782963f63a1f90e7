package experiments

import (
	"fmt"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/dsb"
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
	// Seed drives everything.
	Seed uint64
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

// dbKey names one generated database: IMDB or DSB, at a scale.
type dbKey struct {
	imdb  bool
	scale int
}

// database is one generated database, the workload splits drawn from it, and
// the untrained system the main experiments replay over it: that system's
// buffer serves every shared system of the database for the suite's
// lifetime.
type database struct {
	sys    *pythia.System
	draw   func(name string) *workload.Workload
	splits map[string]*split
}

// Suite builds what the experiments share — databases, workload splits and
// trained workloads — on first use and keeps it, so each distinct one is
// built once per suite whichever experiments need it, in whatever order. A
// Suite is not safe for concurrent use.
type Suite struct {
	cfg Config

	dbs  map[dbKey]*database
	memo map[string]*pythia.Trained
	// builds and trainings count database builds and trainings.
	builds, trainings int
}

// NewSuite returns a suite over cfg.
func NewSuite(cfg Config) *Suite {
	if cfg.PerTemplate <= 0 {
		cfg = DefaultConfig()
	}
	return &Suite{cfg: cfg, dbs: map[dbKey]*database{}, memo: map[string]*pythia.Trained{}}
}

// Config returns the suite configuration.
func (s *Suite) Config() Config { return s.cfg }

// Templates lists the DSB templates under study.
func (s *Suite) Templates() []string { return []string{"t18", "t19", "t91"} }

// database builds (once) and returns the database k names: the suite's one
// path to a generator.
func (s *Suite) database(k dbKey) *database {
	if d, ok := s.dbs[k]; ok {
		return d
	}
	s.builds++
	d := &database{splits: map[string]*split{}}
	var db *catalog.Database
	cfg := pythia.DefaultConfig()
	if k.imdb {
		g := imdb.NewGenerator(imdb.Config{Scale: k.scale, Seed: s.cfg.Seed})
		db = g.DB()
		d.draw = func(string) *workload.Workload { return g.Workload(s.cfg.IMDBInstances, s.cfg.Seed+101) }
		// Sized so the big instances' predictions overflow the buffer — the
		// limited-prefetching regime (§5.1).
		cfg.Replay.BufferPages = db.Registry.TotalPages() / 12
	} else {
		g := dsb.NewGenerator(dsb.Config{ScaleFactor: k.scale, Seed: s.cfg.Seed})
		db = g.DB()
		d.draw = func(tpl string) *workload.Workload { return g.Workload(tpl, s.cfg.PerTemplate, s.cfg.Seed+11) }
		// ≈1.5% of data, after the paper's ~1% guideline, floored to keep
		// the pool useful at tiny test scales.
		cfg.Replay.BufferPages = max(db.Registry.TotalPages()*3/200, 256)
	}
	d.sys = pythia.New(db, cfg)
	s.dbs[k] = d
	return d
}

// home is the database the main experiments draw a workload from: IMDB for
// imdb1a, DSB at the suite's scale for a template.
func (s *Suite) home(name string) dbKey {
	if name == "imdb1a" {
		return dbKey{imdb: true, scale: s.cfg.IMDBScale}
	}
	return dbKey{scale: s.cfg.Scale}
}

// Split builds (once) and returns the named workload's train/test split over
// its home database. Names: t18, t19, t91, imdb1a.
func (s *Suite) Split(name string) *split { return s.split(s.home(name), name) }

// split builds (once) and returns a workload's train/test split over
// database k.
func (s *Suite) split(k dbKey, name string) *split {
	d := s.database(k)
	if sp, ok := d.splits[name]; ok {
		return sp
	}
	w := d.draw(name)
	train, test := w.Split(s.cfg.TestFraction, s.cfg.Seed+23)
	sp := &split{all: w, train: train, test: test}
	d.splits[name] = sp
	return sp
}

// trained returns workload name of database k trained with opts on train,
// training it on first use. The key is everything the weights depend on, so
// experiments that need the same workload share one training; train prints
// as its instances' addresses, in order. A workload that an experiment
// mutates must come from train instead, or a later run would be handed the
// mutation.
func (s *Suite) trained(k dbKey, name string, train []*workload.Instance, opts predictor.Options) *pythia.Trained {
	key := fmt.Sprintf("%v %s %+v %v", k, name, opts, train)
	tw, ok := s.memo[key]
	if !ok {
		tw = s.train(k, name, train, opts)
		s.memo[key] = tw
	}
	return tw
}

// train fits workload name of database k with opts on train: the suite's one
// training path.
func (s *Suite) train(k dbKey, name string, train []*workload.Instance, opts predictor.Options) *pythia.Trained {
	s.trainings++
	cfg := pythia.DefaultConfig()
	cfg.Predictor = opts
	return pythia.New(s.database(k).sys.DB, cfg).Train(name, train)
}

// system assembles the main experiments' system: the named workloads of one
// database (DSB templates, or imdb1a), each trained with predictorOptions on
// its split, over the database's shared system.
func (s *Suite) system(names ...string) *pythia.System {
	k := dbKey{scale: s.cfg.Scale} // no names: Figure 1 replays oracles over DSB
	if len(names) > 0 {
		k = s.home(names[0])
	}
	tws := make([]*pythia.Trained, len(names))
	for i, name := range names {
		tws[i] = s.trained(k, name, s.split(k, name).train, s.predictorOptions())
	}
	return s.database(k).sys.WithWorkloads(tws...)
}

// ablation assembles a system over database k serving one workload, sized
// like the main buffer and replaying without faults: the retraining
// ablations and extensions.
func (s *Suite) ablation(k dbKey, tw *pythia.Trained) *pythia.System {
	return s.database(k).sys.WithReplay(replay.Config{BufferPages: s.bufferPages()}).WithWorkloads(tw)
}

// predictorOptions builds the standard training options. Every experiment
// trains with them; an ablation changes only the factor it varies, so a row
// that varies nothing shares the main experiments' training.
func (s *Suite) predictorOptions() predictor.Options {
	return predictor.Options{Model: s.cfg.Model}
}

// bufferPages is the main DSB experiments' pool size.
func (s *Suite) bufferPages() int {
	return s.database(dbKey{scale: s.cfg.Scale}).sys.Config().Replay.BufferPages
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
