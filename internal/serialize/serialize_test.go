package serialize

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/catalog"
	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/index"
	"github.com/pythia-db/pythia/internal/plan"
)

func starDB() *catalog.Database {
	db := catalog.NewDatabase()
	db.AddRelation("sales", 1000, 10, []catalog.Column{
		{Name: "s_sk", Gen: catalog.Serial{}},
		{Name: "s_item_fk", Gen: catalog.Uniform{Lo: 0, Hi: 200, Seed: 1}},
		{Name: "s_amount", Gen: catalog.Uniform{Lo: 0, Hi: 1000, Seed: 3}},
	})
	item := db.AddRelation("item", 200, 10, []catalog.Column{
		{Name: "i_sk", Gen: catalog.Serial{}},
		{Name: "i_cat", Gen: catalog.Uniform{Lo: 0, Hi: 10, Seed: 4}},
	})
	db.BuildIndex(item, "i_sk", index.Config{LeafCap: 8, Fanout: 4})
	return db
}

func mkPlan(db *catalog.Database, amountLo, amountHi int64, forceIndex bool) *plan.Node {
	pl := plan.NewPlanner(db)
	return pl.MustPlan(plan.Query{
		Fact:      "sales",
		FactPreds: []plan.Pred{plan.Between("s_amount", amountLo, amountHi)},
		Dims: []plan.DimJoin{{
			Dim: "item", FactFK: "s_item_fk", DimKey: "i_sk",
			ForceIndex: forceIndex, ForceHash: !forceIndex,
			Preds: []plan.Pred{plan.Eq("i_cat", 3)},
		}},
	})
}

func TestSerializeStructure(t *testing.T) {
	db := starDB()
	toks := Serialize(mkPlan(db, 0, 99, true), DefaultConfig())
	if toks[0] != TokenCLS {
		t.Fatalf("first token = %q, want CLS", toks[0])
	}
	want := []string{"[AGG]", "[NLJ]", "[SEQ]", "o:sales", "[PRED]", "[IDX]", "o:item_i_sk_idx", "o:item"}
	i := 0
	for _, w := range want {
		found := false
		for ; i < len(toks); i++ {
			if toks[i] == w {
				found = true
				i++
				break
			}
		}
		if !found {
			t.Fatalf("token %q missing (in order) from %v", w, toks)
		}
	}
}

func TestSerializeScanTypeDiffers(t *testing.T) {
	db := starDB()
	nlj := Serialize(mkPlan(db, 0, 99, true), DefaultConfig())
	hj := Serialize(mkPlan(db, 0, 99, false), DefaultConfig())
	same := len(nlj) == len(hj)
	if same {
		for i := range nlj {
			if nlj[i] != hj[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("NLJ and HJ plans serialized identically")
	}
	// Hash-join plan contains [HJ], no [IDX].
	hasHJ, hasIDX := false, false
	for _, tok := range hj {
		if tok == "[HJ]" {
			hasHJ = true
		}
		if tok == "[IDX]" {
			hasIDX = true
		}
	}
	if !hasHJ || hasIDX {
		t.Fatalf("hash plan tokens wrong: %v", hj)
	}
}

func TestValueBucketing(t *testing.T) {
	db := starDB()
	cfg := Config{ValueBuckets: 10}
	// With 10 base buckets over the [0,1000) domain the finest resolution is
	// 40 buckets (width 25): values 5 and 20 share every resolution's bucket.
	a := Serialize(mkPlan(db, 5, 5, true), cfg)
	b := Serialize(mkPlan(db, 20, 20, true), cfg)
	if !equalToks(a, b) {
		t.Fatalf("same-bucket constants serialized differently:\n%v\n%v", a, b)
	}
	c := Serialize(mkPlan(db, 505, 505, true), cfg)
	if equalToks(a, c) {
		t.Fatal("different-bucket constants serialized identically")
	}
	// Nearby constants in different fine buckets still share their coarse
	// token (the multi-resolution property).
	d := Serialize(mkPlan(db, 5, 5, true), cfg)
	e := Serialize(mkPlan(db, 80, 80, true), cfg)
	shared := 0
	em := map[string]bool{}
	for _, tok := range e {
		em[tok] = true
	}
	for _, tok := range d {
		if len(tok) > 2 && tok[0] == 'v' && em[tok] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("nearby constants share no value tokens at any resolution")
	}
}

func equalToks(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRangePredicateEmitsBothBounds(t *testing.T) {
	db := starDB()
	toks := Serialize(mkPlan(db, 100, 300, true), DefaultConfig())
	hasGE, hasLE := false, false
	for _, tok := range toks {
		if tok == "op:>=" {
			hasGE = true
		}
		if tok == "op:<=" {
			hasLE = true
		}
	}
	if !hasGE || !hasLE {
		t.Fatalf("range predicate bounds missing: %v", toks)
	}
}

func TestOpenBoundTokens(t *testing.T) {
	db := starDB()
	pl := plan.NewPlanner(db)
	root := pl.MustPlan(plan.Query{
		Fact:      "sales",
		FactPreds: []plan.Pred{plan.AtLeast("s_amount", 500)},
	})
	toks := Serialize(root, DefaultConfig())
	for _, tok := range toks {
		if tok == "op:<=" {
			t.Fatal("open upper bound still serialized")
		}
	}
}

func TestVocabEncodeRoundTrip(t *testing.T) {
	v := NewVocab()
	toks := []Token{"[AGG]", "o:sales", "v:x#3", "o:sales"}
	ids := v.Encode(toks)
	if ids[1] != ids[3] {
		t.Fatal("same token got different ids")
	}
	for i, id := range ids {
		if v.Token(id) != toks[i] {
			t.Fatalf("round trip failed at %d", i)
		}
	}
	if v.Size() < 6 { // 3 reserved + 3 distinct
		t.Fatalf("Size = %d", v.Size())
	}
}

func TestVocabFreezeMapsUnknownToUnk(t *testing.T) {
	v := NewVocab()
	v.AddAll([]Token{"a", "b"})
	v.Freeze()
	pre := v.Size()
	ids := v.Encode([]Token{"a", "zzz"})
	if v.Size() != pre {
		t.Fatal("frozen vocab grew")
	}
	if v.Token(ids[1]) != TokenUnk {
		t.Fatalf("unknown token encoded as %q", v.Token(ids[1]))
	}
	if v.Token(ids[0]) != "a" {
		t.Fatal("known token mangled after freeze")
	}
	if v.Token(-1) != TokenUnk || v.Token(9999) != TokenUnk {
		t.Fatal("out-of-range Token() should return UNK")
	}
}

func TestSerializeDeterministic(t *testing.T) {
	db := starDB()
	a := Serialize(mkPlan(db, 0, 99, true), DefaultConfig())
	b := Serialize(mkPlan(db, 0, 99, true), DefaultConfig())
	if !equalToks(a, b) {
		t.Fatal("serialization not deterministic")
	}
}

func TestZeroBucketConfigDefaults(t *testing.T) {
	if (Config{}).buckets() != 32 {
		t.Fatal("zero config should default to 32 buckets")
	}
}

func TestVocabTokensRoundTrip(t *testing.T) {
	v := NewVocab()
	v.AddAll([]Token{"a", "b", "c"})
	v.Freeze()
	restored, err := VocabFromTokens(v.Tokens())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Size() != v.Size() {
		t.Fatal("size mismatch after round trip")
	}
	ids1 := v.Encode([]Token{"a", "c", "zzz"})
	ids2 := restored.Encode([]Token{"a", "c", "zzz"})
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatal("restored vocab encodes differently")
		}
	}
	// Restored vocabularies are frozen.
	if restored.Encode([]Token{"brand-new"})[0] != restored.Encode([]Token{TokenUnk})[0] {
		t.Fatal("restored vocab not frozen")
	}
}

func TestVocabFromTokensRejectsBadInput(t *testing.T) {
	if _, err := VocabFromTokens(nil); err == nil {
		t.Fatal("empty token list accepted")
	}
	if _, err := VocabFromTokens([]string{"x", "y", "z"}); err == nil {
		t.Fatal("missing reserved prefix accepted")
	}
	if _, err := VocabFromTokens([]string{TokenPad, TokenUnk, TokenCLS, "a", "a"}); err == nil {
		t.Fatal("duplicate token accepted")
	}
}

// FuzzVocabFromTokens drives persisted token lists, one token per line,
// through VocabFromTokens: a bad list must come back as an error, never a
// panic, and an accepted one must be frozen and exact — Tokens() returns the
// list, Encode(Tokens()) is 0..n-1, and a token outside the list encodes to
// [UNK] without growing the vocabulary.
func FuzzVocabFromTokens(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		tokens := strings.Split(in, "\n")
		v, err := VocabFromTokens(tokens)
		if err != nil {
			return
		}
		if got := v.Tokens(); !slices.Equal(got, tokens) {
			t.Fatalf("Tokens() = %q, persisted %q", got, tokens)
		}
		for i, id := range v.Encode(v.Tokens()) {
			if id != i {
				t.Fatalf("token %d (%q) encodes to %d", i, tokens[i], id)
			}
		}
		unseen := "[unseen]"
		for slices.Contains(tokens, unseen) {
			unseen += "'"
		}
		if id := v.Encode([]Token{unseen})[0]; v.Token(id) != TokenUnk {
			t.Fatalf("unseen token %q encodes to %d (%q), not [UNK]", unseen, id, v.Token(id))
		}
		if v.Size() != len(tokens) {
			t.Fatalf("vocabulary grew to %d from %d persisted tokens", v.Size(), len(tokens))
		}
	})
}

// sprintfValueTokens is valueTokens as it was written with fmt.Sprintf: the
// reference for the token strings, which trained vocabularies depend on.
func sprintfValueTokens(n *plan.Node, col string, v int64, cfg Config) []Token {
	buckets := cfg.buckets()
	if v == math.MinInt64 {
		return []Token{"v:open_lo"}
	}
	if v == math.MaxInt64 {
		return []Token{"v:open_hi"}
	}
	if n.Rel != nil {
		if ci := n.Rel.ColumnIndex(col); ci >= 0 {
			lo, hi := n.Rel.Columns[ci].Gen.Domain()
			if hi > lo {
				span := float64(hi - lo)
				out := make([]Token, 0, 3)
				resolutions := []int{buckets / 4, buckets, buckets * 4}
				if cfg.SingleResolution {
					resolutions = []int{buckets}
				}
				for _, res := range resolutions {
					if res < 2 {
						continue
					}
					b := int(float64(v-lo) / span * float64(res))
					if b < 0 {
						b = 0
					}
					if b >= res {
						b = res - 1
					}
					out = append(out, fmt.Sprintf("v:%s@%d#%d", col, res, b))
				}
				return out
			}
		}
	}
	return []Token{fmt.Sprintf("v:%d", v)}
}

// TestValueTokensMatchSprintf: every value token is byte for byte what
// fmt.Sprintf wrote, at every resolution setting, for constants inside,
// outside and at the edges of the column's domain and for columns the
// relation does not have.
func TestValueTokensMatchSprintf(t *testing.T) {
	db := starDB()
	root := mkPlan(db, 0, 99, false)
	var scan *plan.Node
	root.Walk(func(n *plan.Node) {
		if n.Rel != nil && n.Rel.Name == "sales" {
			scan = n
		}
	})
	values := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -7, -1, 0, 1, 5, 499, 999, 1000, 1001, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	for _, cfg := range []Config{{}, {ValueBuckets: 1}, {ValueBuckets: 4}, {ValueBuckets: 7}, {ValueBuckets: 32}, {ValueBuckets: 32, SingleResolution: true}, {ValueBuckets: 1, SingleResolution: true}, {ValueBuckets: 1000}} {
		for _, col := range []string{"s_amount", "s_sk", "s_item_fk", "no_such_column", ""} {
			for _, v := range values {
				got := valueTokens([]Token{"x"}, scan, col, v, cfg)
				want := append([]Token{"x"}, sprintfValueTokens(scan, col, v, cfg)...)
				if !slices.Equal(got, want) {
					t.Fatalf("%+v %q %d: %q, want %q", cfg, col, v, got, want)
				}
			}
		}
	}
}

// BenchmarkSerialize serializes the plans of the t91 instances; one op is
// one plan.
func BenchmarkSerialize(b *testing.B) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 2, Seed: 7})
	pl := plan.NewPlanner(g.DB())
	var roots []*plan.Node
	for _, q := range g.Queries("t91", 60, 1) {
		roots = append(roots, pl.MustPlan(q))
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Serialize(roots[i%len(roots)], cfg)
	}
}
