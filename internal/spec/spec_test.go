package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/pythia-db/pythia/internal/dsb"
	"github.com/pythia-db/pythia/internal/plan"
)

func i64(v int64) *int64 { return &v }

func TestToQueryBounds(t *testing.T) {
	q, err := (QuerySpec{
		Fact: "f",
		FactPreds: []Pred{
			{Col: "a", Lo: i64(1), Hi: i64(5)},
			{Col: "b", Lo: i64(10)},
			{Col: "c", Hi: i64(3)},
		},
	}).ToQuery()
	if err != nil {
		t.Fatal(err)
	}
	if q.FactPreds[0] != plan.Between("a", 1, 5) {
		t.Fatalf("between wrong: %+v", q.FactPreds[0])
	}
	if q.FactPreds[1].Hi != math.MaxInt64 || q.FactPreds[1].Lo != 10 {
		t.Fatalf("open-hi wrong: %+v", q.FactPreds[1])
	}
	if q.FactPreds[2].Lo != math.MinInt64 || q.FactPreds[2].Hi != 3 {
		t.Fatalf("open-lo wrong: %+v", q.FactPreds[2])
	}
}

func TestToQueryErrors(t *testing.T) {
	cases := []QuerySpec{
		{},                                 // missing fact
		{Fact: "f", FactPreds: []Pred{{}}}, // predicate without col
		{Fact: "f", FactPreds: []Pred{{Col: "a"}}}, // no bounds
		{Fact: "f", FactPreds: []Pred{{Col: "a", Lo: i64(math.MinInt64), Hi: i64(math.MaxInt64)}}},
		{Fact: "f", FactPreds: []Pred{{Col: "a", Lo: i64(9), Hi: i64(1)}}}, // inverted
		{Fact: "f", Dims: []Dim{{Dim: "d"}}},                               // incomplete join
		{Fact: "f", Dims: []Dim{{Dim: "d", FactFK: "k", DimKey: "s", ForceHash: true, ForceIndex: true}}},
	}
	for i, c := range cases {
		if _, err := c.ToQuery(); err == nil {
			t.Fatalf("case %d did not error", i)
		}
	}
}

func TestRoundTripThroughJSON(t *testing.T) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 5, Seed: 7})
	for _, tpl := range g.Templates() {
		orig := g.Queries(tpl, 3, 1)
		for _, q := range orig {
			var buf bytes.Buffer
			if err := FromQuery(q).Encode(&buf); err != nil {
				t.Fatal(err)
			}
			decoded, err := Decode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decoded.ToQuery()
			if err != nil {
				t.Fatal(err)
			}
			if back.Fact != q.Fact || back.Template != q.Template || len(back.Dims) != len(q.Dims) {
				t.Fatalf("%s: round trip changed structure", tpl)
			}
			for i := range q.FactPreds {
				if back.FactPreds[i] != q.FactPreds[i] {
					t.Fatalf("%s: fact pred %d changed: %+v vs %+v", tpl, i, back.FactPreds[i], q.FactPreds[i])
				}
			}
			for i := range q.Dims {
				if back.Dims[i].Dim != q.Dims[i].Dim || back.Dims[i].ForceIndex != q.Dims[i].ForceIndex {
					t.Fatalf("%s: dim %d changed", tpl, i)
				}
				for j := range q.Dims[i].Preds {
					if back.Dims[i].Preds[j] != q.Dims[i].Preds[j] {
						t.Fatalf("%s: dim pred changed", tpl)
					}
				}
			}
			// The round-tripped query plans to the same shape.
			pl := plan.NewPlanner(g.DB())
			if pl.MustPlan(back).Shape() != pl.MustPlan(q).Shape() {
				t.Fatalf("%s: round trip changed plan shape", tpl)
			}
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"fact":"f","bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// edgeCases are the inputs where a hand-written JSON reader most easily
// parts from encoding/json. Each is also a committed FuzzDecode seed
// (UPDATE_GOLDEN=1 go test -run TestDecodeMatchesEncodingJSON writes them).
var edgeCases = []string{
	// Strings: every escape, surrogate pairs, lone surrogates, invalid UTF-8.
	`{"fact":"a\"b\\c\/d\be\ff\ng\rh\ti\u0041\u00e9\u0000"}`,
	`{"fact":"\ud83d\ude00"}`,
	`{"fact":"\ud83d"}`,
	`{"fact":"\ude00x"}`,
	`{"fact":"\ud83d\u0041"}`,
	`{"fact":"\ud83d\ud83d\ude00"}`,
	`{"fact":"\uD83D\uDE00\u2028<>&"}`,
	"{\"fact\":\"\xff\xfe\"}",
	"{\"fact\":\"\xed\xa0\x80 \xe2\x82\"}",
	"{\"fact\":\"a\x01\"}",
	"{\"fact\":\"a\tb\"}",
	"{\"fact\":\"a\nb\"}",
	"{\"fa\tct\":\"x\"}",
	"{\"fa\x00ct\":\"x\"}",
	`{"fact":"\x"}`,
	`{"fact":"\'"}`,
	`{"fact":"\u12"}`,
	`{"fact":"\u12G4"}`,
	`{"fact":"\ud83d\u12"}`,
	`{"fact":"abc`,
	`{"fact":"abc\`,
	// Member names: exact, then case-folded, escaped.
	`{"FACT":"x"}`,
	`{"Fact":"x","TEMPLATE":"t91","Instance":2}`,
	`{"fact":"x","fact_predſ":[]}`,
	`{"fact":"x","dims":[{"dim":"d","fact_fk":"f","dim_K` + "\u212a" + `ey":"k"}]}`,
	`{"fact":"x","dims":[{"DIM":"d","Fact_FK":"f","dim_key":"k","FORCE_HASH":true}]}`,
	`{"f\u0061ct":"x"}`,
	`{"fact_":"x"}`,
	// null on every kind of field, [] against null.
	`{"fact":null}`,
	`{"template":null,"instance":null,"fact":"x"}`,
	`{"fact":"x","fact_preds":null,"dims":null}`,
	`{"fact":"x","fact_preds":[null]}`,
	`{"fact":"x","fact_preds":[]}`,
	`{"fact":"x","dims":[null,{"dim":"d","fact_fk":"f","dim_key":"k","preds":null,"force_hash":null,"force_index":false}]}`,
	`{"fact":"x","dims":[{"dim":"d","fact_fk":"f","dim_key":"k","preds":[]}]}`,
	`{"fact":"x","fact_preds":[{"col":null,"lo":null,"hi":3}]}`,
	`null`,
	` null `,
	`[]`,
	`"fact"`,
	``,
	" \t\r\n",
	"\xef\xbb\xbf{\"fact\":\"x\"}",
	// Numbers.
	`{"fact":"x","instance":-0}`,
	`{"fact":"x","instance":1.0}`,
	`{"fact":"x","instance":1e2}`,
	`{"fact":"x","instance":1E+2}`,
	`{"fact":"x","instance":01}`,
	`{"fact":"x","instance":-01}`,
	`{"fact":"x","instance":+1}`,
	`{"fact":"x","instance":-}`,
	`{"fact":"x","instance":1.}`,
	`{"fact":"x","instance":.5}`,
	`{"fact":"x","instance":"1"}`,
	`{"fact":"x","instance":9223372036854775808}`,
	`{"fact":"x","fact_preds":[{"col":"c","lo":-9223372036854775808,"hi":9223372036854775807}]}`,
	`{"fact":"x","fact_preds":[{"col":"c","lo":9223372036854775808}]}`,
	`{"fact":"x","fact_preds":[{"col":"c","hi":-9223372036854775809}]}`,
	`{"fact":"x","fact_preds":[{"col":"c","lo":1-2}]}`,
	// Unknown fields at every level, and values of the wrong kind.
	`{"fact":"x","bogus":1}`,
	`{"fact":"x","dims":[{"dim":"d","fact_fk":"f","dim_key":"k","bogus":{"a":[1]}}]}`,
	`{"fact":"x","fact_preds":[{"col":"c","lo":1,"extra":null}]}`,
	`{"fact":1}`,
	`{"fact":true}`,
	`{"fact":"x","dims":{}}`,
	`{"fact":"x","dims":[1]}`,
	`{"fact":"x","dims":[[]]}`,
	`{"fact":"x","fact_preds":[{"col":"c","lo":"1"}]}`,
	`{"fact":"x","dims":[{"dim":"d","force_hash":"true"}]}`,
	`{"fact":"x","dims":[{"dim":"d","force_hash":1}]}`,
	// Syntax, and data after the document.
	`{"fact":"x",}`,
	`{"fact":"x","dims":[{"dim":"d"},]}`,
	`{"fact":"x","dims":[,]}`,
	`{"fact" "x"}`,
	`{fact:"x"}`,
	`{"fact":"x"`,
	`{"fact":"x"}}`,
	`{"fact":"x","dims":[{"dim":"d","force_hash":tru}]}`,
	`{"fact":"x","dims":[{"dim":"d","force_hash":truex}]}`,
	`{"fact":"x"} {"x":1} garbage`,
	`{"fact":"x"}x`,
	`nullx`,
	"\t\r\n {\n\"fact\" :\t\"x\" , \"instance\" : 3 }\n",
	// Duplicate fields, case-folded ones included.
	`{"fact":"a","fact":"b"}`,
	`{"fact":"a","FACT":"b"}`,
	`{"fact":"a","fact":null}`,
	`{"fact":"x","fact_preds":[{"col":"a","lo":1}],"fact_preds":[{"col":"b"}]}`,
	`{"fact":"x","fact_preds":[{"col":"a","lo":1,"LO":2}]}`,
}

// seedDir holds FuzzDecode's committed seeds.
var seedDir = filepath.Join("testdata", "fuzz", "FuzzDecode")

// seeds reads every committed FuzzDecode seed.
func seeds(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(seedDir, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed seeds in %s (UPDATE_GOLDEN=1 writes them): %v", seedDir, err)
	}
	var out []string
	for _, name := range files {
		entry, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		_, quoted, _ := strings.Cut(strings.TrimSuffix(string(entry), ")\n"), "\nstring(")
		in, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s is not one string literal: %v", name, err)
		}
		out = append(out, in)
	}
	return out
}

// dsbSpecs is 20 instances of each DSB template at SF 2.
func dsbSpecs() []QuerySpec {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 2, Seed: 7})
	var out []QuerySpec
	for _, tpl := range g.Templates() {
		for _, q := range g.Queries(tpl, 20, 1) {
			out = append(out, FromQuery(q))
		}
	}
	return out
}

// TestDecodeMatchesEncodingJSON holds Decode to encoding/json (checkDecode)
// on the edge cases, every committed fuzz seed, and the DSB instances both
// as Encode writes it and as compact json.Marshal output.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(seedDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, in := range edgeCases {
			entry := "go test fuzz v1\nstring(" + strconv.Quote(in) + ")\n"
			if err := os.WriteFile(filepath.Join(seedDir, fmt.Sprintf("edge-%02d", i)), []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, in := range append(edgeCases, seeds(t)...) {
		checkDecode(t, []byte(in))
	}
	for _, qs := range dsbSpecs() {
		var indented bytes.Buffer
		if err := qs.Encode(&indented); err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(qs)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{indented.Bytes(), compact} {
			if got, ok := checkDecode(t, in); !ok || !reflect.DeepEqual(got, qs) {
				t.Fatalf("%s decodes to %#v, want %#v", in, got, qs)
			}
		}
	}
}

// TestDecodeRefusesWhatJSONForgives: the contract's two divergences from
// encoding/json, which accepts both.
func TestDecodeRefusesWhatJSONForgives(t *testing.T) {
	for _, in := range []string{`{"fact":"x"} {"x":1} garbage`, `{"fact":"x"}x`, `nullx`} {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%q: data after the document accepted", in)
		}
	}
	for _, in := range []string{`{"fact":"a","fact":"b"}`, `{"fact":"a","FACT":"b"}`, `{"fact":"x","dims":[{"dim":"d","preds":[],"Preds":null}]}`} {
		if _, err := Decode(strings.NewReader(in)); !errors.Is(err, ErrDuplicateField) {
			t.Errorf("%q: error %v, want ErrDuplicateField", in, err)
		}
	}
}

// BenchmarkDecode decodes the t91 instances' request bodies, as Encode
// writes them; one op is one body.
func BenchmarkDecode(b *testing.B) {
	g := dsb.NewGenerator(dsb.Config{ScaleFactor: 2, Seed: 7})
	var bodies [][]byte
	for _, q := range g.Queries("t91", 60, 1) {
		var buf bytes.Buffer
		if err := FromQuery(q).Encode(&buf); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(bodies[i%len(bodies)])); err != nil {
			b.Fatal(err)
		}
	}
}
