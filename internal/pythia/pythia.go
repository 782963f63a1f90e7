// Package pythia is the top-level system: the analog of the paper's
// Postgres integration (§4). It owns trained per-workload predictors,
// decides for each incoming query whether Pythia engages (workload matching,
// Algorithm 3 lines 3–4) or execution falls back to the default path,
// applies limited prefetching when predictions exceed what the buffer pool
// can hold, and replays queries through the buffer/OS-cache/disk timing
// model with or without the asynchronous prefetcher.
package pythia

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/fault"
	"github.com/pythia-db/pythia/internal/obs"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/predictor"
	"github.com/pythia-db/pythia/internal/quality"
	"github.com/pythia-db/pythia/internal/replay"
	"github.com/pythia-db/pythia/internal/serialize"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/span"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// Config assembles the system.
type Config struct {
	// Replay is the timing model (buffer size, policy, cost constants).
	Replay replay.Config
	// Predictor configures model training.
	Predictor predictor.Options
	// Window is the readahead window R (pinned prefetched pages); the
	// paper's default is 1024.
	Window int
	// Recorder, when non-nil, receives system-level events (workload
	// matched/fallback, limited-prefetching truncation) and is threaded
	// into every replay this system runs, so live per-level cache counters
	// flow to it. Nil disables observability at zero cost.
	Recorder obs.Recorder
	// Tracer, when non-nil, records the virtual-time span timeline of every
	// replay this system runs (see internal/span), plus a mark for each
	// system-level event its table names (inference degrades, drift
	// transitions) — with or without a Recorder set. Like Replay.Fault, use
	// a fresh tracer per run (or Reset it): spans accumulate across Run
	// calls.
	Tracer *span.Tracer
}

// prefetchBufferFraction bounds limited prefetching: at most this fraction
// of the buffer pool is filled by prefetch for one query ("we perform
// limited prefetching to stay within buffer memory bounds", §5.1).
const prefetchBufferFraction = 0.75

// Normalize validates the configuration and fills unset (zero) fields with
// defaults, including the nested replay config. A negative window is an
// error, not a silently patched default.
func (c Config) Normalize() (Config, error) {
	if c.Window < 0 {
		return c, fmt.Errorf("pythia: negative Window %d", c.Window)
	}
	if c.Window == 0 {
		c.Window = 1024
	}
	if c.Replay.BufferPages == 0 {
		c.Replay.BufferPages = 2048
	}
	var err error
	if c.Replay, err = c.Replay.Normalize(); err != nil {
		return c, err
	}
	return c, nil
}

// DefaultConfig returns the experiment harness defaults.
func DefaultConfig() Config {
	return Config{Replay: replay.Config{BufferPages: 2048}, Window: 1024}
}

// driftSerializeCfg is the canonical serialization for drift profiles:
// coarse, single-resolution value buckets. Drift detection watches for
// template-mix and domain shifts, not per-instance parameter noise — the
// model's fine-resolution token ladder would make sparsely-sampled wide
// domains read as divergence. Baseline and live streams must use the same
// config; changing it invalidates persisted baselines (the profile hash
// changes, so /stats shows a new identity).
var driftSerializeCfg = serialize.Config{ValueBuckets: 8, SingleResolution: true}

// DriftTokens serializes a plan into the model-independent token stream
// drift profiles are built from — shared by training-time baselines, replay
// scoring, and the serve tier's live monitors.
func DriftTokens(root *plan.Node) []serialize.Token {
	return serialize.Serialize(root, driftSerializeCfg)
}

// Trained is one workload Pythia has models for.
type Trained struct {
	Name string
	Pred *predictor.Predictor
	// Baseline is the workload's training-time plan-distribution profile:
	// the frozen reference drift detection compares the live stream against.
	// Persisted in the snapshot; a workload loaded without one (nil) leaves
	// drift detection off.
	Baseline  *quality.Profile
	templates map[string]bool
	relations map[string]bool
}

// System is a database plus Pythia's trained workloads.
type System struct {
	DB      *catalog.Database
	cfg     Config
	trained []*Trained
}

// New assembles a system over db. It panics on an invalid Config; call
// Config.Normalize first to handle validation errors gracefully (the cmds
// do).
func New(db *catalog.Database, cfg Config) *System {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic(err.Error())
	}
	return &System{DB: db, cfg: cfg}
}

// Record implements obs.Recorder: it is the stamp point of system-level
// events. The configured recorder counts the event and the tracer, a recorder
// on the same stream, marks it if its table names the kind.
//
//pythia:noalloc
func (s *System) Record(e obs.Event) {
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.Record(e)
	}
	s.cfg.Tracer.Record(e)
}

// record emits one system-level event that concerns no query in particular.
//
//pythia:noalloc
func (s *System) record(k obs.Kind) { s.Record(obs.Event{Kind: k, Query: obs.NoQuery}) }

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Train fits a predictor for the named workload from training instances and
// registers it for matching.
func (s *System) Train(name string, train []*workload.Instance) *Trained {
	samples := make([]predictor.TrainSample, len(train))
	tw := &Trained{
		Name:      name,
		templates: map[string]bool{},
		relations: map[string]bool{},
	}
	tw.Baseline = &quality.Profile{}
	for i, inst := range train {
		samples[i] = predictor.TrainSample{Plan: inst.Plan, Trace: inst.Trace}
		tw.templates[inst.Query.Template] = true
		tw.relations[inst.Query.Fact] = true
		for _, d := range inst.Query.Dims {
			tw.relations[d.Dim] = true
		}
		// The drift baseline uses the model-independent serialization (not
		// the predictor's vocabulary ids) so unmatched held-out queries still
		// land in the same feature space at serving time.
		tw.Baseline.ObserveTokens(DriftTokens(inst.Plan))
	}
	tw.Pred = predictor.Train(samples, s.cfg.Predictor)
	s.trained = append(s.trained, tw)
	return tw
}

// Workloads returns the trained workloads.
func (s *System) Workloads() []*Trained { return s.trained }

// Baseline merges the trained workloads' training-time profiles into the
// system-wide drift baseline. Nil when no workload carries one (untrained
// system, or a snapshot without baselines) — drift detection stays off.
func (s *System) Baseline() *quality.Profile {
	var merged *quality.Profile
	for _, tw := range s.trained {
		if tw.Baseline == nil {
			continue
		}
		if merged == nil {
			merged = &quality.Profile{}
		}
		merged.Merge(tw.Baseline)
	}
	return merged
}

// BaselineID identifies the model generation a drift report was measured
// against: the baseline profile's content hash plus training provenance.
// /stats exposes it so drift alarms correlate to a specific generation
// across zero-downtime model swaps.
type BaselineID struct {
	// Hash is the baseline Profile's content hash (16 hex chars).
	Hash string `json:"hash"`
	// Plans is the number of training plans folded into the baseline.
	Plans uint64 `json:"plans"`
	// Workloads is the number of trained workloads merged in.
	Workloads int `json:"workloads"`
	// TrainTime is the summed wall-clock fitting time across workloads
	// (nanoseconds in JSON).
	TrainTime time.Duration `json:"train_time_ns"`
}

// BaselineID returns the system's baseline identity, nil when no baseline
// exists.
func (s *System) BaselineID() *BaselineID {
	b := s.Baseline()
	if b == nil {
		return nil
	}
	id := &BaselineID{Hash: b.HashString(), Plans: b.Plans, Workloads: len(s.trained)}
	for _, tw := range s.trained {
		if tw.Pred != nil {
			id.TrainTime += tw.Pred.TrainTime
		}
	}
	return id
}

// WithReplay returns a copy of the system sharing its trained predictors
// but replaying under a different timing configuration — the buffer-size,
// replacement-policy, and cost sweeps (Figures 12e–f) retrain nothing.
func (s *System) WithReplay(rc replay.Config) *System {
	clone := *s
	if rc.BufferPages == 0 {
		rc.BufferPages = s.cfg.Replay.BufferPages
	}
	normalized, err := rc.Normalize()
	if err != nil {
		panic(err.Error())
	}
	clone.cfg.Replay = normalized
	return &clone
}

// WithWindow returns a copy of the system with a different readahead window
// (the Figure 12g sweep), sharing trained predictors.
func (s *System) WithWindow(w int) *System {
	clone := *s
	if w > 0 {
		clone.cfg.Window = w
	}
	return &clone
}

// WithFault returns a copy of the system whose replays run under the given
// fault injector (chaos sweeps retrain nothing). Pass a fresh injector per
// run for bitwise-reproducible timelines.
func (s *System) WithFault(inj *fault.Injector) *System {
	clone := *s
	clone.cfg.Replay.Fault = inj
	return &clone
}

// WithWorkloads returns a copy of the system serving exactly the given
// trained workloads, in order (the experiment suite assembles systems from
// workloads it trains once).
func (s *System) WithWorkloads(tws ...*Trained) *System {
	clone := *s
	clone.trained = slices.Clone(tws)
	return &clone
}

// Match decides which trained workload (if any) a query belongs to: an
// exact template match first, then a relation-set Jaccard ≥ 0.5 fallback for
// untagged queries. Nil means Pythia does not engage and the query runs on
// the default path (Algorithm 3, line 14).
func (s *System) Match(q plan.Query) *Trained {
	tw := s.match(q)
	if tw != nil {
		s.record(obs.WorkloadMatched)
	} else {
		s.record(obs.WorkloadFallback)
	}
	return tw
}

// Lookup is Match without the workload-matching event: for callers that
// already recorded the routing decision once and only need the *Trained
// handle again. The serve tier's replica pool matches on its routing view to
// pick a replica, then the routed replica resolves its own (independent)
// Trained with Lookup so one request never counts as two matches.
func (s *System) Lookup(q plan.Query) *Trained { return s.match(q) }

func (s *System) match(q plan.Query) *Trained {
	for _, tw := range s.trained {
		if q.Template != "" && tw.templates[q.Template] {
			return tw
		}
	}
	var best *Trained
	bestSim := 0.5
	qRels := map[string]bool{q.Fact: true}
	for _, d := range q.Dims {
		qRels[d.Dim] = true
	}
	for _, tw := range s.trained {
		inter, union := 0, len(tw.relations)
		for r := range qRels {
			if tw.relations[r] {
				inter++
			} else {
				union++
			}
		}
		if union == 0 {
			continue
		}
		if sim := float64(inter) / float64(union); sim >= bestSim {
			bestSim = sim
			best = tw
		}
	}
	return best
}

// Prefetch runs Algorithm 3 for one query: match its workload, predict the
// page set from the serialized plan, and bound it for the buffer. A nil
// result means fallback (no prefetching).
func (s *System) Prefetch(inst *workload.Instance) []storage.PageID {
	tw := s.Match(inst.Query)
	if tw == nil {
		return nil
	}
	return s.LimitPrefetch(tw.Pred.Predict(inst.Plan))
}

// LimitPrefetch truncates a predicted page set to PrefetchBudget, keeping
// file-storage order, and records obs.PrefetchLimited when it cuts.
func (s *System) LimitPrefetch(pages []storage.PageID) []storage.PageID {
	if budget := s.PrefetchBudget(); len(pages) > budget {
		pages = pages[:budget]
		s.record(obs.PrefetchLimited)
	}
	return pages
}

// PrefetchBudget is the most pages one prefetch set may hold: the
// prefetchBufferFraction share of the buffer pool.
func (s *System) PrefetchBudget() int {
	return int(float64(s.cfg.Replay.BufferPages) * prefetchBufferFraction)
}

// PrefetchFunc maps an instance to its prefetch set; baselines and Pythia
// itself both fit this shape.
type PrefetchFunc func(*workload.Instance) []storage.PageID

// Run replays instances with per-instance arrival times and the given
// prefetch strategy (nil strategy = default execution for all). Prefetch
// sets from the strategy are buffer-bounded exactly like Pythia's own.
func (s *System) Run(insts []*workload.Instance, arrivals []sim.Duration, strategy PrefetchFunc) *replay.RunResult {
	specs := make([]replay.QuerySpec, len(insts))
	var deadlineMisses uint64
	for i, inst := range insts {
		var arr sim.Duration
		if arrivals != nil {
			arr = arrivals[i]
		}
		var pf []storage.PageID
		if strategy != nil {
			if s.cfg.Replay.Fault.Fire(fault.Inference, sim.Time(arr)) {
				// A late (or faulted) inference is a skipped one: the query
				// runs on the default path instead of waiting. The event
				// carries whose inference it was and when it was due. A
				// systematic deadline miss is the site at rate 1.
				deadlineMisses++
				s.Record(obs.Event{Kind: obs.InferenceDeadlineMiss, Query: int32(i), At: sim.Time(arr)})
			} else {
				pf = s.LimitPrefetch(strategy(inst))
			}
		}
		specs[i] = replay.QuerySpec{
			ID:       specID(inst, i),
			Arrival:  arr,
			Requests: inst.Requests,
			Prefetch: pf,
			Window:   s.cfg.Window,
		}
	}
	cfg := s.cfg.Replay
	if cfg.Recorder == nil {
		// The system-level recorder observes every replay too, so live
		// per-level cache counters flow to one place.
		cfg.Recorder = s.cfg.Recorder
	}
	if cfg.Tracer == nil {
		cfg.Tracer = s.cfg.Tracer
	}
	res := replay.Run(s.DB.Registry, cfg, specs)
	res.InferenceDeadlineMisses = deadlineMisses
	return res
}

func specID(inst *workload.Instance, i int) string {
	return inst.Query.Template + "#" + strconv.Itoa(inst.Query.Instance) + "/" + strconv.Itoa(i)
}

// SpeedupColdCache measures one instance's cold-cache speedup: the ratio of
// its default-path elapsed time to its elapsed time under the strategy
// ("Postgres is restarted between every different query execution along
// with cleaning OS page cache", §5.1 — each Run starts cold).
func (s *System) SpeedupColdCache(inst *workload.Instance, strategy PrefetchFunc) float64 {
	dflt := s.Run([]*workload.Instance{inst}, nil, nil)
	variant := s.Run([]*workload.Instance{inst}, nil, strategy)
	return float64(dflt.TotalElapsed()) / float64(variant.TotalElapsed())
}
