// Package dsb synthesizes the Decision Support Benchmark substrate the
// paper evaluates on (§5.1). DSB is TPC-DS's entity model — 7 fact and 17
// dimension relations — with skewed, correlated data distributions replacing
// TPC-DS's uniform ones, and parameterized SPJ query templates.
//
// This generator rebuilds that substrate at simulation scale: the full
// 24-relation schema with page geometries proportional to TPC-DS row counts,
// Zipf skew on hot foreign keys, cross-column correlations (a fact's item
// foreign key tracks its sold-date, so a date-range predicate selects a
// correlated set of dimension pages — the structure Pythia learns), and the
// three representative templates the paper reports (18, 19, 91) shaped to
// land in the same access-pattern regimes as Table 1:
//
//	T18 — large fact (catalog_sales), 6 relations, ≤4 index-scanned dims,
//	      many distinct plans (borderline hash/index cost decisions);
//	T19 — largest fact (store_sales), 6 relations, fewer distinct plans;
//	T91 — small fact (catalog_returns), 7 relations, ≤5 index-scanned dims,
//	      the highest non-sequential fraction (and thus the best speedup).
//
// ScaleFactor maps linearly onto page counts: 100 is the reference
// "SF 100" simulation scale; 25 and 50 reproduce Figure 12a's database-size
// sweep. Tests use smaller factors for speed.
package dsb

import (
	"fmt"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/index"
	"github.com/pythia-db/pythia/internal/plan"
	"github.com/pythia-db/pythia/internal/sim"
	"github.com/pythia-db/pythia/internal/workload"
)

// Config parameterizes database construction.
type Config struct {
	// ScaleFactor scales all fact (and most dimension) row counts linearly;
	// 100 is the reference scale.
	ScaleFactor int
	// Seed drives all value generators.
	Seed uint64
	// Index overrides B+tree geometry (defaults are production-like).
	Index index.Config
}

// DefaultConfig returns the reference SF-100 configuration.
func DefaultConfig() Config {
	return Config{ScaleFactor: 100, Seed: 7, Index: index.Config{LeafCap: 128, Fanout: 64}}
}

// Generator owns a DSB database and produces template query instances.
type Generator struct {
	cfg Config
	db  *catalog.Database

	// Domain bounds the templates draw parameters from.
	priceLo, priceHi int64
}

// DateLo and DateHi bound the date domain (day numbers, ~6.5 years): date
// columns are generated over it and template date parameters drawn from it.
const DateLo, DateHi int64 = 0, 2400

// scaled returns base rows scaled by the configured factor (reference 100),
// with a floor of 20 rows so tiny scale factors stay well formed.
func (g *Generator) scaled(base int64) int64 {
	rows := base * int64(g.cfg.ScaleFactor) / 100
	if rows < 20 {
		rows = 20
	}
	return rows
}

// NewGenerator builds the 24-relation DSB database at the configured scale.
func NewGenerator(cfg Config) *Generator {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 100
	}
	if cfg.Index.LeafCap == 0 {
		cfg.Index = DefaultConfig().Index
	}
	g := &Generator{cfg: cfg, db: catalog.NewDatabase()}
	g.priceLo, g.priceHi = 0, 30000

	seed := cfg.Seed
	next := func() uint64 { seed += 0x9e3779b97f4a7c15; return seed }

	// --- Dimension relations (17) -------------------------------------
	// Row counts follow TPC-DS proportions at simulation scale. Dims whose
	// TPC-DS size is static keep a fixed size; item/customer families scale.
	itemRows := g.scaled(20400)
	custRows := g.scaled(20000)
	addrRows := g.scaled(10000)
	cdRows := g.scaled(19200)
	hdRows := int64(7200)

	dim := func(name string, rows int64, perPage int, extra ...catalog.Column) *catalog.Relation {
		cols := append([]catalog.Column{
			{Name: name + "_sk", Gen: catalog.Serial{}},
		}, extra...)
		rel := g.db.AddRelation(name, rows, perPage, cols)
		g.db.BuildIndex(rel, name+"_sk", g.cfg.Index)
		return rel
	}

	dim("date_dim", 7305, 20, catalog.Column{Name: "d_year", Gen: catalog.Uniform{Lo: 1998, Hi: 2004, Seed: next()}})
	dim("time_dim", 8640, 20)
	dim("item", itemRows, 12,
		catalog.Column{Name: "i_category", Gen: catalog.Uniform{Lo: 0, Hi: 10, Seed: next()}},
		catalog.Column{Name: "i_brand", Gen: catalog.NewZipf(0, 400, 1.1, next())},
	)
	dim("customer", custRows, 10,
		catalog.Column{Name: "c_birth_year", Gen: catalog.Uniform{Lo: 1930, Hi: 2000, Seed: next()}},
	)
	dim("customer_address", addrRows, 10,
		catalog.Column{Name: "ca_state", Gen: catalog.NewZipf(0, 50, 1.0, next())},
	)
	dim("customer_demographics", cdRows, 20,
		catalog.Column{Name: "cd_dep_count", Gen: catalog.Uniform{Lo: 0, Hi: 10, Seed: next()}},
	)
	dim("household_demographics", hdRows, 20,
		catalog.Column{Name: "hd_income_band", Gen: catalog.Uniform{Lo: 0, Hi: 20, Seed: next()}},
	)
	dim("store", 40, 10)
	dim("call_center", 24, 10)
	dim("catalog_page", 1200, 20)
	dim("web_site", 30, 10)
	dim("web_page", 120, 20)
	dim("warehouse", 15, 10)
	dim("ship_mode", 20, 20)
	dim("reason", 35, 20)
	dim("income_band", 20, 20)
	dim("promotion", 300, 20)

	// --- Fact relations (7) --------------------------------------------
	// Each fact's dimension foreign keys are correlated with its sold-date
	// column (DSB's cross-column correlation): filtering a date range
	// concentrates the probed dimension rows, which is the signal Pythia's
	// models pick up. A Zipf overlay skews popularity (hot items/customers).
	fact := func(name string, rows int64, perPage int, fks []fkSpec) {
		dateGen := catalog.Uniform{Lo: DateLo, Hi: DateHi, Seed: next()}
		cols := []catalog.Column{
			{Name: name + "_sold_date", Gen: dateGen},
			{Name: name + "_price", Gen: catalog.NewZipf(g.priceLo, int(g.priceHi), 0.6, next())},
			{Name: name + "_quantity", Gen: catalog.Uniform{Lo: 1, Hi: 100, Seed: next()}},
		}
		for _, fk := range fks {
			target := g.db.Relation(fk.dim)
			stride := target.Rows * 3 / (DateHi - DateLo) // date → key region
			if stride < 1 {
				stride = 1
			}
			window := target.Rows / 64
			if window < 4 {
				window = 4
			}
			cols = append(cols, catalog.Column{
				Name: fk.col,
				Gen: moduloWrap{
					base: catalog.Noisy{
						Base: catalog.Correlated{
							Base:      dateGen,
							Transform: func(stride int64) func(int64) int64 { return func(v int64) int64 { return v * stride } }(stride),
							Lo:        0, Hi: target.Rows,
						},
						Range: window,
						Seed:  next(),
					},
					mod: target.Rows,
				},
			})
		}
		g.db.AddRelation(name, rows, perPage, cols)
	}

	fact("store_sales", g.scaled(288000), 48, []fkSpec{
		{"ss_item_sk", "item"}, {"ss_customer_sk", "customer"},
		{"ss_store_sk", "store"}, {"ss_hdemo_sk", "household_demographics"},
		{"ss_sold_date_sk", "date_dim"},
	})
	fact("catalog_sales", g.scaled(144000), 48, []fkSpec{
		{"cs_item_sk", "item"}, {"cs_bill_customer_sk", "customer"},
		{"cs_bill_addr_sk", "customer_address"}, {"cs_bill_cdemo_sk", "customer_demographics"},
		{"cs_sold_date_sk", "date_dim"},
	})
	fact("web_sales", g.scaled(72000), 48, []fkSpec{
		{"ws_item_sk", "item"}, {"ws_bill_customer_sk", "customer"},
		{"ws_web_site_sk", "web_site"},
	})
	fact("store_returns", g.scaled(28800), 48, []fkSpec{
		{"sr_item_sk", "item"}, {"sr_customer_sk", "customer"},
	})
	fact("catalog_returns", g.scaled(14400), 48, []fkSpec{
		{"cr_item_sk", "item"}, {"cr_returning_customer_sk", "customer"},
		{"cr_returning_addr_sk", "customer_address"}, {"cr_returning_cdemo_sk", "customer_demographics"},
		{"cr_returning_hdemo_sk", "household_demographics"}, {"cr_call_center_sk", "call_center"},
	})
	fact("web_returns", g.scaled(7200), 48, []fkSpec{
		{"wr_item_sk", "item"}, {"wr_returning_customer_sk", "customer"},
	})
	fact("inventory", g.scaled(100000), 96, []fkSpec{
		{"inv_item_sk", "item"}, {"inv_warehouse_sk", "warehouse"},
	})

	return g
}

type fkSpec struct {
	col string
	dim string
}

// moduloWrap wraps a generator's output into [0, mod) so correlated keys
// stay valid foreign keys.
type moduloWrap struct {
	base catalog.Generator
	mod  int64
}

func (m moduloWrap) Value(row int64) int64 {
	v := m.base.Value(row) % m.mod
	if v < 0 {
		v += m.mod
	}
	return v
}

func (m moduloWrap) Domain() (int64, int64) { return 0, m.mod }

// DB returns the generated database.
func (g *Generator) DB() *catalog.Database { return g.db }

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Templates lists the implemented template names.
func (g *Generator) Templates() []string { return []string{"t18", "t19", "t91"} }

// Queries generates n uniformly sampled instances of the named template
// ("we use DSB's standard query generator, which uses uniform sampling for
// parameters", §5.1).
func (g *Generator) Queries(template string, n int, seed uint64) []plan.Query {
	r := sim.NewRand(seed ^ g.cfg.Seed)
	out := make([]plan.Query, n)
	for i := range out {
		var q plan.Query
		switch template {
		case "t18":
			q = g.t18(r)
		case "t19":
			q = g.t19(r)
		case "t91":
			q = g.t91(r)
		default:
			panic(fmt.Sprintf("dsb: unknown template %q", template))
		}
		q.Template = template
		q.Instance = i
		out[i] = q
	}
	return out
}

// Workload generates, plans, and executes n instances of the template.
func (g *Generator) Workload(template string, n int, seed uint64) *workload.Workload {
	return workload.MustBuild(template, g.db, g.Queries(template, n, seed))
}

// dateWindow draws a date-range predicate: the start is snapped to a
// discrete grid and the width comes from the template's fixed menu. DSB's
// query generator samples parameters uniformly from *finite per-parameter
// domains* — individual values recur across the workload's instances and
// only their combinations are new — which is exactly what makes unseen
// queries learnable (and what "total distinct queries ... are in billions"
// refers to: the combinatorial product, not continuous values).
func (g *Generator) dateWindow(r *sim.Rand, grid int64, widths []int64) (int64, int64) {
	width := widths[r.Intn(len(widths))]
	slots := (DateHi - DateLo - width) / grid
	lo := DateLo + grid*r.Int63n(slots)
	return lo, lo + width
}

// pick draws uniformly from a finite parameter domain.
func pick(r *sim.Rand, values ...int64) int64 { return values[r.Intn(len(values))] }

// t18 is the catalog_sales template: a date+price filtered fact scan joined
// to customer_demographics, customer, customer_address, date_dim, and item.
// The demographic/price parameters move dimension selectivities across the
// planner's hash/index break-even points, which is what yields T18's large
// number of distinct plans.
func (g *Generator) t18(r *sim.Rand) plan.Query {
	dLo, dHi := g.dateWindow(r, 60, []int64{7, 14, 21, 35, 49})
	priceCap := g.priceLo + pick(r, 200, 1500, 3000, 4500, 6000, 9000, 12000, 15000, 21000, 30000)
	depCount := r.Int63n(10)
	stateCap := pick(r, 5, 15, 25, 35, 45)
	catCap := pick(r, 1, 3, 5, 7, 9)
	dims := []plan.DimJoin{
		{Dim: "customer_demographics", FactFK: "cs_bill_cdemo_sk", DimKey: "customer_demographics_sk",
			Preds: []plan.Pred{plan.Eq("cd_dep_count", depCount)}},
		{Dim: "customer", FactFK: "cs_bill_customer_sk", DimKey: "customer_sk"},
		{Dim: "customer_address", FactFK: "cs_bill_addr_sk", DimKey: "customer_address_sk",
			Preds: []plan.Pred{plan.AtMost("ca_state", stateCap)}},
		{Dim: "item", FactFK: "cs_item_sk", DimKey: "item_sk",
			Preds: []plan.Pred{plan.AtMost("i_category", catCap)}},
	}
	// Emulate optimizer join ordering: most selective dimension first. The
	// order depends on the instance's parameters, so different instances
	// yield structurally different plans — the source of T18's many
	// distinct plans in Table 1.
	sel := map[string]float64{
		"customer_demographics": 0.1,
		"customer":              1.0,
		"customer_address":      float64(stateCap) / 50,
		"item":                  float64(catCap) / 10,
	}
	for i := 1; i < len(dims); i++ {
		for j := i; j > 0 && sel[dims[j].Dim] < sel[dims[j-1].Dim]; j-- {
			dims[j], dims[j-1] = dims[j-1], dims[j]
		}
	}
	dims = append(dims, plan.DimJoin{
		Dim: "date_dim", FactFK: "cs_sold_date_sk", DimKey: "date_dim_sk", ForceHash: true,
	})
	return plan.Query{
		Fact: "catalog_sales",
		FactPreds: []plan.Pred{
			plan.Between("catalog_sales_sold_date", dLo, dHi),
			plan.AtMost("catalog_sales_price", priceCap),
		},
		Dims: dims,
	}
}

// t19 is the store_sales template: the largest fact, joined to item,
// customer, store, household_demographics, and date_dim. Fewer parameters
// cross cost break-evens, so it exhibits fewer distinct plans than t18.
func (g *Generator) t19(r *sim.Rand) plan.Query {
	dLo, dHi := g.dateWindow(r, 60, []int64{7, 10, 14})
	return plan.Query{
		Fact: "store_sales",
		FactPreds: []plan.Pred{
			plan.Between("store_sales_sold_date", dLo, dHi),
			plan.AtMost("store_sales_price", g.priceLo+pick(r, 1000, 2000, 4000, 6000, 8000, 10000)),
		},
		Dims: []plan.DimJoin{
			{Dim: "item", FactFK: "ss_item_sk", DimKey: "item_sk",
				Preds: []plan.Pred{plan.AtMost("i_brand", pick(r, 50, 150, 250, 350))}},
			{Dim: "customer", FactFK: "ss_customer_sk", DimKey: "customer_sk"},
			{Dim: "store", FactFK: "ss_store_sk", DimKey: "store_sk", ForceHash: true},
			{Dim: "household_demographics", FactFK: "ss_hdemo_sk", DimKey: "household_demographics_sk",
				Preds: []plan.Pred{plan.AtMost("hd_income_band", pick(r, 4, 8, 12, 16))}},
			{Dim: "date_dim", FactFK: "ss_sold_date_sk", DimKey: "date_dim_sk", ForceHash: true},
		},
	}
}

// t91 is the catalog_returns template: a small fact joined to call_center,
// customer, customer_demographics, household_demographics, customer_address,
// and date via the customer — 7 relations, up to 5 index-scanned. Because
// the fact is tiny, the non-sequential fraction of its I/O is the highest of
// the three templates, which is where the paper reports its best speedups.
func (g *Generator) t91(r *sim.Rand) plan.Query {
	// Mostly narrow windows (few returns), occasionally a wide one — the
	// source of T91's 30× min-to-max spread in distinct non-sequential IO
	// and of its second plan shape (wide windows push the item join across
	// the hash-join break-even).
	widths := []int64{2, 3, 4}
	if r.Float64() < 0.12 {
		widths = []int64{45, 90}
	}
	dLo, dHi := g.dateWindow(r, 60, widths)
	return plan.Query{
		Fact: "catalog_returns",
		FactPreds: []plan.Pred{
			plan.Between("catalog_returns_sold_date", dLo, dHi),
		},
		Dims: []plan.DimJoin{
			{Dim: "call_center", FactFK: "cr_call_center_sk", DimKey: "call_center_sk", ForceHash: true},
			{Dim: "customer", FactFK: "cr_returning_customer_sk", DimKey: "customer_sk", ForceIndex: true},
			{Dim: "customer_demographics", FactFK: "cr_returning_cdemo_sk", DimKey: "customer_demographics_sk", ForceIndex: true},
			{Dim: "household_demographics", FactFK: "cr_returning_hdemo_sk", DimKey: "household_demographics_sk", ForceIndex: true},
			{Dim: "customer_address", FactFK: "cr_returning_addr_sk", DimKey: "customer_address_sk", ForceIndex: true},
			{Dim: "item", FactFK: "cr_item_sk", DimKey: "item_sk"},
		},
	}
}
