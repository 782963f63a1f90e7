package spec

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// reference decodes in the way Decode's contract is written against: one
// Decode by encoding/json with DisallowUnknownFields, then nothing but
// whitespace up to the end.
func reference(in []byte) (QuerySpec, error) {
	var q QuerySpec
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return QuerySpec{}, err
	}
	if len(bytes.TrimLeft(in[dec.InputOffset():], " \t\r\n")) != 0 {
		return QuerySpec{}, errors.New("data after the document")
	}
	return q, nil
}

// checkDecode holds Decode to the reference on one input: it accepts if and
// only if the reference does, and then builds the same QuerySpec. A refusal
// for a duplicate field, one of Decode's two deliberate divergences, is not
// compared.
func checkDecode(t *testing.T, in []byte) (QuerySpec, bool) {
	t.Helper()
	got, err := Decode(bytes.NewReader(in))
	if errors.Is(err, ErrDuplicateField) {
		return QuerySpec{}, false
	}
	want, refErr := reference(in)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%q:\nDecode:        %v\nencoding/json: %v", in, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\nDecode:        %#v\nencoding/json: %#v", in, got, want)
	}
	return got, err == nil
}

// FuzzDecode drives arbitrary bytes through the serving tier's request
// decoder: Decode must agree with encoding/json (checkDecode), never panic,
// and anything that decodes and converts cleanly must survive an
// Encode/Decode round trip unchanged at the query level.
func FuzzDecode(f *testing.F) {
	f.Add(`{"fact":"store_sales"}`)
	f.Add(`{"fact":"catalog_returns","template":"t91","instance":3,` +
		`"fact_preds":[{"col":"cr_returned_date_sk","lo":10,"hi":90}],` +
		`"dims":[{"dim":"date_dim","fact_fk":"cr_returned_date_sk","dim_key":"d_date_sk",` +
		`"preds":[{"col":"d_year","lo":1,"hi":2}]}]}`)
	f.Add(`{"fact":""}`)
	f.Add(`{"fact":"x","dims":[{"dim":"d","fact_fk":"f","dim_key":"k","force_hash":true,"force_index":true}]}`)
	f.Add(`{"fact":"x","fact_preds":[{"col":"c","lo":5,"hi":1}]}`)
	f.Add(`{"unknown_field":1}`)
	f.Add(`[]`)
	f.Add(``)

	f.Fuzz(func(t *testing.T, in string) {
		qs, ok := checkDecode(t, []byte(in))
		if !ok {
			return
		}
		q, err := qs.ToQuery()
		if err != nil {
			return
		}
		// Valid specs round-trip: Encode → Decode → ToQuery yields the same
		// planner query.
		var buf bytes.Buffer
		if err := FromQuery(q).Encode(&buf); err != nil {
			t.Fatalf("encode of decoded spec failed: %v", err)
		}
		qs2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v\n%s", err, buf.String())
		}
		q2, err := qs2.ToQuery()
		if err != nil {
			t.Fatalf("re-converted query failed: %v", err)
		}
		if !reflect.DeepEqual(q, q2) {
			t.Fatalf("round trip changed the query:\n%+v\n%+v", q, q2)
		}
	})
}
