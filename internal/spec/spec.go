// Package spec defines a JSON interchange format for query specifications,
// so external tools (and the pythia-serve HTTP service) can submit star-join
// queries without linking the planner: a QuerySpec document maps one-to-one
// onto plan.Query.
//
// Predicates use explicit nullable bounds — {"col":"x","lo":5,"hi":9} is
// 5 ≤ x ≤ 9, omitting lo or hi leaves that side open — which round-trips the
// planner's open-interval sentinels without exposing math.MinInt64 in JSON.
//
// Encode is encoding/json's. Decode is written for this schema, without
// reflection, because it is on the serving path. A body is one strict RFC
// 8259 document with nothing but whitespace around it. Member names match
// as in encoding/json, exactly and then by bytes.EqualFold; an unknown or
// repeated name is an error at every level. Otherwise Decode accepts what
// encoding/json with DisallowUnknownFields accepts and builds the same
// QuerySpec: TestDecodeMatchesEncodingJSON and FuzzDecode hold it to that
// oracle.
package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"github.com/pythia-db/pythia/internal/plan"
)

// Pred is one predicate in interchange form.
type Pred struct {
	Col string `json:"col"`
	Lo  *int64 `json:"lo,omitempty"`
	Hi  *int64 `json:"hi,omitempty"`
}

// Dim is one dimension join in interchange form.
type Dim struct {
	Dim        string `json:"dim"`
	FactFK     string `json:"fact_fk"`
	DimKey     string `json:"dim_key"`
	Preds      []Pred `json:"preds,omitempty"`
	ForceHash  bool   `json:"force_hash,omitempty"`
	ForceIndex bool   `json:"force_index,omitempty"`
}

// QuerySpec is a star-join query in interchange form.
type QuerySpec struct {
	Template  string `json:"template,omitempty"`
	Instance  int    `json:"instance,omitempty"`
	Fact      string `json:"fact"`
	FactPreds []Pred `json:"fact_preds,omitempty"`
	Dims      []Dim  `json:"dims,omitempty"`
}

func toPlanPred(p Pred) (plan.Pred, error) {
	if p.Col == "" {
		return plan.Pred{}, fmt.Errorf("spec: predicate missing col")
	}
	out := plan.Pred{Col: p.Col, Lo: math.MinInt64, Hi: math.MaxInt64}
	if p.Lo != nil {
		out.Lo = *p.Lo
	}
	if p.Hi != nil {
		out.Hi = *p.Hi
	}
	// Bounds at the open sentinels leave that side open, as FromQuery reads
	// them: a predicate with both is as unbounded as one with neither.
	if out.Lo == math.MinInt64 && out.Hi == math.MaxInt64 {
		return plan.Pred{}, fmt.Errorf("spec: predicate on %s has no bounds", p.Col)
	}
	if out.Lo > out.Hi {
		return plan.Pred{}, fmt.Errorf("spec: predicate on %s has lo > hi", p.Col)
	}
	return out, nil
}

func fromPlanPred(p plan.Pred) Pred {
	out := Pred{Col: p.Col}
	if p.Lo != math.MinInt64 {
		lo := p.Lo
		out.Lo = &lo
	}
	if p.Hi != math.MaxInt64 {
		hi := p.Hi
		out.Hi = &hi
	}
	return out
}

// ToQuery converts the interchange form into a planner query.
func (q QuerySpec) ToQuery() (plan.Query, error) {
	if q.Fact == "" {
		return plan.Query{}, fmt.Errorf("spec: query missing fact relation")
	}
	out := plan.Query{Fact: q.Fact, Template: q.Template, Instance: q.Instance}
	for _, p := range q.FactPreds {
		pp, err := toPlanPred(p)
		if err != nil {
			return plan.Query{}, err
		}
		out.FactPreds = append(out.FactPreds, pp)
	}
	for _, d := range q.Dims {
		if d.Dim == "" || d.FactFK == "" || d.DimKey == "" {
			return plan.Query{}, fmt.Errorf("spec: dim join needs dim, fact_fk, dim_key")
		}
		dj := plan.DimJoin{
			Dim: d.Dim, FactFK: d.FactFK, DimKey: d.DimKey,
			ForceHash: d.ForceHash, ForceIndex: d.ForceIndex,
		}
		if d.ForceHash && d.ForceIndex {
			return plan.Query{}, fmt.Errorf("spec: dim %s forces both hash and index", d.Dim)
		}
		for _, p := range d.Preds {
			pp, err := toPlanPred(p)
			if err != nil {
				return plan.Query{}, err
			}
			dj.Preds = append(dj.Preds, pp)
		}
		out.Dims = append(out.Dims, dj)
	}
	return out, nil
}

// FromQuery converts a planner query into interchange form.
func FromQuery(q plan.Query) QuerySpec {
	out := QuerySpec{Fact: q.Fact, Template: q.Template, Instance: q.Instance}
	for _, p := range q.FactPreds {
		out.FactPreds = append(out.FactPreds, fromPlanPred(p))
	}
	for _, d := range q.Dims {
		dj := Dim{
			Dim: d.Dim, FactFK: d.FactFK, DimKey: d.DimKey,
			ForceHash: d.ForceHash, ForceIndex: d.ForceIndex,
		}
		for _, p := range d.Preds {
			dj.Preds = append(dj.Preds, fromPlanPred(p))
		}
		out.Dims = append(out.Dims, dj)
	}
	return out
}

// Encode writes the spec as indented JSON, as encoding/json's Encoder does
// with SetIndent("", "  ").
func (q QuerySpec) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(q)
}
