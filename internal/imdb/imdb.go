// Package imdb synthesizes the IMDB / Cardinality Estimation Benchmark
// substrate of the paper's second evaluation (§5.1, "IMDB Data Workload"):
// a 9-relation movie schema whose template 1a joins the title table with
// cast_info, name, and the smaller satellite relations.
//
// The defining properties of the paper's template 1a, which this generator
// reproduces at simulation scale, are:
//
//   - almost no sequential I/O (Table 1 reports 4 sequential reads): the
//     driving title scan is tiny relative to the probed relations;
//   - cast_info is by far the largest relation, is only accessed through an
//     index (one movie → many cast rows), and a single query can touch more
//     cast_info pages than fit in the buffer pool, forcing Pythia's limited
//     prefetching path;
//   - a wide spread of distinct non-sequential reads across instances
//     (Table 1: 5 298 – 223 251, a 42× range) and many distinct plans (41).
//
// Substitution note (also recorded in DESIGN.md): the real CEB 1a navigates
// title → cast_info → name as a chain; the executor here models star joins,
// so the chain is flattened into foreign keys on the driving relation. The
// access-pattern geometry — which relation is probed how often and with what
// locality — is preserved, which is all the prefetcher observes.
package imdb

import (
	"fmt"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/index"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/workload"
)

// Config parameterizes the generator.
type Config struct {
	// Scale scales the big relations (100 = reference; 0 selects it).
	// NewGenerator panics on a negative value.
	Scale int
	// Seed drives value generation.
	Seed uint64
	// Index overrides B+tree geometry.
	Index index.Config
}

// DefaultConfig returns the reference configuration.
func DefaultConfig() Config {
	return Config{Scale: 100, Seed: 17, Index: index.Config{LeafCap: 128, Fanout: 64}}
}

// Generator owns the IMDB database and produces template 1a instances.
type Generator struct {
	cfg Config
	db  *catalog.Database

	yearLo, yearHi int64
}

func (g *Generator) scaled(base int64) int64 {
	rows := base * int64(g.cfg.Scale) / 100
	if rows < 20 {
		rows = 20
	}
	return rows
}

// NewGenerator builds the 9-relation IMDB schema. It panics on a negative
// Scale.
func NewGenerator(cfg Config) *Generator {
	if cfg.Scale < 0 {
		panic(fmt.Sprintf("imdb: negative Scale %d", cfg.Scale))
	}
	if cfg.Scale == 0 {
		cfg.Scale = 100
	}
	if cfg.Index.LeafCap == 0 {
		cfg.Index = DefaultConfig().Index
	}
	g := &Generator{cfg: cfg, db: catalog.NewDatabase()}
	g.yearLo, g.yearHi = 1900, 2020

	seed := cfg.Seed
	next := func() uint64 { seed += 0x9e3779b97f4a7c15; return seed }

	titleRows := g.scaled(24000)
	castRows := g.scaled(300000) // the dominant relation
	nameRows := g.scaled(48000)
	charRows := g.scaled(30000)
	companyRows := g.scaled(20000)
	mcRows := g.scaled(50000)
	miRows := g.scaled(80000)

	// The driving relation: titles ordered by production year (as IMDB ids
	// roughly are), with flattened foreign keys into the probed relations.
	// Each FK tracks the title's position, so a year window concentrates the
	// probed pages — with noise so instances differ.
	pos := catalog.Serial{}
	yearOf := catalog.Correlated{
		Base:      pos,
		Transform: func(row int64) int64 { return 1900 + row*120/titleRows },
		Lo:        1900, Hi: 2020,
	}
	fk := func(target int64, spread int64) catalog.Generator {
		return wrap{
			base: catalog.Noisy{
				Base: catalog.Correlated{
					Base:      pos,
					Transform: func(row int64) int64 { return row * target / titleRows },
					Lo:        0, Hi: target,
				},
				Range: spread,
				Seed:  next(),
			},
			mod: target,
		}
	}
	title := g.db.AddRelation("title", titleRows, 200, []catalog.Column{
		{Name: "t_id", Gen: pos},
		{Name: "t_production_year", Gen: yearOf},
		{Name: "t_kind", Gen: catalog.Uniform{Lo: 0, Hi: 7, Seed: next()}},
		// One movie has ~castRows/titleRows cast entries; the probe key is
		// the movie's id region in cast_info's movie index.
		{Name: "t_cast_fk", Gen: fk(castRows/12, castRows/200)},
		{Name: "t_name_fk", Gen: fk(nameRows, nameRows/24)},
		{Name: "t_char_fk", Gen: fk(charRows, charRows/24)},
		{Name: "t_company_fk", Gen: fk(companyRows, companyRows/24)},
		{Name: "t_mc_fk", Gen: fk(mcRows, mcRows/24)},
		{Name: "t_mi_fk", Gen: fk(miRows, miRows/24)},
		{Name: "t_role_fk", Gen: catalog.Uniform{Lo: 0, Hi: 12, Seed: next()}},
		{Name: "t_info_type_fk", Gen: catalog.Uniform{Lo: 0, Hi: 113, Seed: next()}},
	})
	_ = title

	dim := func(name, key string, rows int64, perPage int) {
		rel := g.db.AddRelation(name, rows, perPage, []catalog.Column{
			{Name: key, Gen: catalog.Serial{}},
		})
		g.db.BuildIndex(rel, key, g.cfg.Index)
	}
	// cast_info is keyed by movie group: each group key matches ~12 rows,
	// so one probe fetches a run of heap pages — one movie's cast.
	castGroups := castRows / 12
	cast := g.db.AddRelation("cast_info", castRows, 40, []catalog.Column{
		{Name: "ci_movie_group", Gen: catalog.Correlated{
			Base:      catalog.Serial{},
			Transform: func(row int64) int64 { return row % castGroups },
			Lo:        0, Hi: castGroups,
		}},
	})
	g.db.BuildIndex(cast, "ci_movie_group", g.cfg.Index)

	dim("name", "n_id", nameRows, 20)
	dim("char_name", "chn_id", charRows, 20)
	dim("company_name", "cn_id", companyRows, 20)
	dim("movie_companies", "mc_id", mcRows, 40)
	dim("movie_info", "mi_id", miRows, 40)
	dim("role_type", "rt_id", 12, 12)
	dim("info_type", "it_id", 113, 40)

	return g
}

// pick draws uniformly from a finite parameter domain.
func pick(r *sim.Rand, values ...int64) int64 { return values[r.Intn(len(values))] }

// wrap keeps correlated keys within the target domain.
type wrap struct {
	base catalog.Generator
	mod  int64
}

func (w wrap) Value(row int64) int64 {
	v := w.base.Value(row) % w.mod
	if v < 0 {
		v += w.mod
	}
	return v
}

func (w wrap) Domain() (int64, int64) { return 0, w.mod }

// DB returns the database.
func (g *Generator) DB() *catalog.Database { return g.db }

// CastInfo returns the cast_info relation — the one the paper prefetches.
func (g *Generator) CastInfo() *catalog.Relation { return g.db.Relation("cast_info") }

// Queries generates n template-1a instances (CEB ships 3000).
func (g *Generator) Queries(n int, seed uint64) []plan.Query {
	r := sim.NewRand(seed ^ g.cfg.Seed)
	out := make([]plan.Query, n)
	for i := range out {
		// Year windows from very narrow to wide: the source of the 42×
		// spread in distinct non-sequential reads.
		// Discrete parameter domains, like the CEB generator's: year-window
		// starts snap to a 4-year grid and widths come from a fixed menu, so
		// individual parameter values recur across the workload's instances.
		width := pick(r, 2, 3, 4)
		if r.Float64() < 0.3 {
			width = pick(r, 8, 16, 28)
		}
		slots := (g.yearHi - g.yearLo - width) / 4
		lo := g.yearLo + 4*r.Int63n(slots)
		kind := r.Int63n(7)
		preds := []plan.Pred{plan.Between("t_production_year", lo, lo+width)}
		// The kind filter is sometimes absent; instances without it qualify
		// 7× more titles, which is what stretches the distinct-non-seq-read
		// spread toward Table 1's 42× range and pushes wide instances past
		// the buffer size (the limited-prefetching regime).
		hasKind := r.Float64() < 0.7
		if hasKind {
			preds = append(preds, plan.Eq("t_kind", kind))
		}
		// Everything big is index-scanned, as in the paper's 1a; only the
		// two tiny type tables are hashed.
		dims := []plan.DimJoin{
			{Dim: "cast_info", FactFK: "t_cast_fk", DimKey: "ci_movie_group", ForceIndex: true},
			{Dim: "name", FactFK: "t_name_fk", DimKey: "n_id", ForceIndex: true},
			{Dim: "char_name", FactFK: "t_char_fk", DimKey: "chn_id", ForceIndex: true},
			{Dim: "company_name", FactFK: "t_company_fk", DimKey: "cn_id", ForceIndex: true},
			{Dim: "movie_companies", FactFK: "t_mc_fk", DimKey: "mc_id", ForceIndex: true},
			{Dim: "movie_info", FactFK: "t_mi_fk", DimKey: "mi_id", ForceIndex: true},
			{Dim: "role_type", FactFK: "t_role_fk", DimKey: "rt_id", ForceHash: true},
			{Dim: "info_type", FactFK: "t_info_type_fk", DimKey: "it_id", ForceHash: true},
		}
		// Optimizer-style reordering keyed on the parameters gives the
		// template its large distinct-plan count.
		if width > 10 {
			dims[1], dims[2] = dims[2], dims[1]
		}
		if kind%2 == 0 {
			dims[3], dims[4] = dims[4], dims[3]
		}
		if !hasKind {
			dims[4], dims[5] = dims[5], dims[4]
		}
		if width > 20 {
			dims[0], dims[1] = dims[1], dims[0]
		}
		out[i] = plan.Query{
			Fact:      "title",
			FactPreds: preds,
			Dims:      dims,
			Template:  "imdb1a",
			Instance:  i,
		}
	}
	return out
}

// Workload generates, plans, and executes n template-1a instances.
func (g *Generator) Workload(n int, seed uint64) *workload.Workload {
	return workload.MustBuild("imdb1a", g.db, g.Queries(n, seed))
}
