// Package pythia is a Go implementation of Pythia — "Pythia: A Neural Model
// for Data Prefetching" (Bapat, Thirumuruganathan, Koudas; EDBT 2025) — a
// learned page prefetcher for RDBMS buffer managers, together with the full
// simulated substrate the paper's evaluation needs: a page-granular storage
// engine with a buffer pool and OS page cache, a star-join planner and
// executor, DSB- and IMDB-style workload generators, the paper's baselines,
// and an experiment harness that regenerates every table and figure of the
// evaluation.
//
// # Quick start
//
//	gen := pythia.NewDSB(pythia.DSBConfig{ScaleFactor: 20, Seed: 7})
//	w := gen.Workload("t91", 60, 1)           // plan + execute + trace
//	train, test := w.Split(0.1, 3)            // hold out unseen queries
//
//	sys := pythia.New(gen.DB(), pythia.DefaultConfig())
//	sys.Train("t91", train)                   // Algorithm 1
//
//	for _, q := range test {
//	    pages := sys.Prefetch(q)              // Algorithm 3: one-shot set
//	    speedup := sys.SpeedupColdCache(q, sys.Prefetch)
//	    _ = pages
//	    _ = speedup
//	}
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// system inventory and the paper-to-package map.
package pythia

import (
	"github.com/pythia-db/pythia/internal/baselines"
	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/experiments"
	"github.com/pythia-db/pythia/internal/imdb"
	"github.com/pythia-db/pythia/internal/metrics"
	"github.com/pythia-db/pythia/internal/model"
	"github.com/pythia-db/pythia/internal/obs"
	core "github.com/pythia-db/pythia/internal/pythia"
	"github.com/pythia-db/pythia/internal/scheduler"
	"github.com/pythia-db/pythia/internal/storage"
	"github.com/pythia-db/pythia/internal/workload"
)

// Core system types.
type (
	// System is the trained Pythia instance over one database: workload
	// matching, prediction, prefetching, and replay-based timing.
	System = core.System
	// Config assembles a System.
	Config = core.Config
	// Trained is one workload Pythia has models for.
	Trained = core.Trained
	// PrefetchFunc maps a query instance to its prefetch set; Pythia and
	// every baseline fit this shape.
	PrefetchFunc = core.PrefetchFunc
)

// Workload types.
type (
	// Workload is a set of executed query instances over one database.
	Workload = workload.Workload
	// Instance is one executed query: plan, access script, and trace.
	Instance = workload.Instance
	// Database is a catalog of relations and indexes.
	Database = catalog.Database
)

// Generator configurations.
type (
	// DSBConfig parameterizes the DSB benchmark generator.
	DSBConfig = dsb.Config
	// IMDBConfig parameterizes the IMDB/CEB generator.
	IMDBConfig = imdb.Config
	// ModelConfig sizes Pythia's multilabel classifiers.
	ModelConfig = model.Config
)

// New assembles a Pythia system over db. It panics on an invalid Config;
// validate with Config.Normalize first to handle errors gracefully.
func New(db *Database, cfg Config) *System { return core.New(db, cfg) }

// Observability: every cache, disk, and prefetcher occurrence in a replay
// (and every workload-matching decision of a System) can be streamed to a
// Recorder — per-level hit/miss/IO accounting while a run executes, not
// only as end-of-run aggregates. Set Config.Recorder to enable; nil costs
// one nil-check per event site.
type (
	// Recorder receives typed observability events.
	Recorder = obs.Recorder
	// ObsEvent is one typed occurrence (kind, query, page, virtual time).
	ObsEvent = obs.Event
	// ObsKind enumerates event types (see the obs package constants).
	ObsKind = obs.Kind
	// ObsCounters is the allocation-free counting Recorder for
	// single-threaded replays.
	ObsCounters = obs.Counters
	// ObsEventLog retains the full event stream in record order.
	ObsEventLog = obs.EventLog
)

// NewEventLog returns an empty, unbounded event log.
func NewEventLog() *ObsEventLog { return obs.NewEventLog() }

// DefaultConfig returns the standard system configuration (Clock buffer,
// readahead window 1024, limited prefetching at 75% of the buffer).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewDSB builds the DSB-style benchmark database and query generator
// (7 fact + 17 dimension relations, templates t18/t19/t91). A ScaleFactor of
// 0 selects the reference 100; a negative one panics.
func NewDSB(cfg DSBConfig) *dsb.Generator { return dsb.NewGenerator(cfg) }

// NewIMDB builds the IMDB/CEB-style database and template-1a generator. A
// Scale of 0 selects the reference 100; a negative one panics.
func NewIMDB(cfg IMDBConfig) *imdb.Generator { return imdb.NewGenerator(cfg) }

// PaperModelConfig returns the paper's full-size hyperparameters (§5.1:
// dim 100, 10 heads, 2 layers, decoder hidden 800).
func PaperModelConfig() ModelConfig { return model.PaperConfig() }

// Baselines (§5.2).
var (
	// Oracle prefetches the exact blocks the query reads (ORCL).
	Oracle = baselines.Oracle
	// OracleSequential prefetches only the sequentially read blocks
	// (the Figure 1 contrast).
	OracleSequential = baselines.OracleSequential
	// NearestNeighbor is the idealized NN baseline.
	NearestNeighbor = baselines.NearestNeighbor
)

// PageID names one disk block.
type PageID = storage.PageID

// F1 scores a predicted page set against the ground truth.
func F1(predicted, truth []PageID) float64 { return metrics.Score(predicted, truth).F1 }

// Experiments harness.
type (
	// ExperimentSuite regenerates the paper's tables and figures.
	ExperimentSuite = experiments.Suite
	// ExperimentConfig scales the suite.
	ExperimentConfig = experiments.Config
	// ResultTable is one experiment's output.
	ResultTable = experiments.Table
)

// NewExperiments builds an experiment suite.
func NewExperiments(cfg ExperimentConfig) *ExperimentSuite { return experiments.NewSuite(cfg) }

// DefaultExperimentConfig is the harness's reference scale; FastExperiments
// is small enough for CI.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// FastExperimentConfig returns a CI-scale configuration.
func FastExperimentConfig() ExperimentConfig { return experiments.Fast() }

// ExperimentNames lists every reproducible table/figure id.
func ExperimentNames() []string { return experiments.Names() }

// Scheduling (the paper's §7 future-work direction, implemented as an
// extension): order a batch of queries by predicted page overlap so
// consecutive queries share buffered pages.
type SchedulerPrediction = scheduler.Prediction

// ScheduleByOverlap orders predictions greedily by consecutive Jaccard
// overlap and returns the instances in scheduled order.
func ScheduleByOverlap(preds []SchedulerPrediction) []*Instance {
	return scheduler.Apply(preds, scheduler.Order(preds))
}
