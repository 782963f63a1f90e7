package spec

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// ErrDuplicateField is wrapped by Decode's error when one object names the
// same field twice, case-folded spellings included.
var ErrDuplicateField = errors.New("spec: duplicate field")

// The member names of each object in declaration order.
var (
	querySpecFields = []string{"template", "instance", "fact", "fact_preds", "dims"}
	dimFields       = []string{"dim", "fact_fk", "dim_key", "preds", "force_hash", "force_index"}
	predFields      = []string{"col", "lo", "hi"}
)

// bodies recycles Decode's read buffers; nothing decoded aliases one.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Decode reads r to EOF and parses the bytes as one QuerySpec document, by
// the rules in the package comment. The spec's strings share one copy of
// the body.
func Decode(r io.Reader) (QuerySpec, error) {
	body := bodies.Get().(*bytes.Buffer)
	defer func() {
		if body.Reset(); body.Cap() <= 64<<10 {
			bodies.Put(body)
		}
	}()
	if _, err := body.ReadFrom(r); err != nil {
		return QuerySpec{}, fmt.Errorf("spec: %w", err)
	}
	d := decoder{in: body.String()}
	var q QuerySpec
	if err := d.value(&q); err != nil {
		return QuerySpec{}, err
	}
	if d.next(); d.pos != len(d.in) {
		return QuerySpec{}, d.errorf("data after the document")
	}
	return q, nil
}

// decoder is one pass over a body. The body is one string, so a string
// value without escapes is a substring of it and costs no allocation.
type decoder struct {
	in      string
	pos     int
	scratch []byte // an escaped string's value as it is built
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("spec: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// next skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) next() byte {
	for ; d.pos < len(d.in); d.pos++ {
		if c := d.in[d.pos]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// literal consumes lit (null, true or false) if it comes next.
func (d *decoder) literal(lit string) bool {
	ok := d.next() == lit[0] && strings.HasPrefix(d.in[d.pos:], lit)
	if ok {
		d.pos += len(lit)
	}
	return ok
}

// list reads the comma-separated items between open and end, handing each
// to item.
func (d *decoder) list(open, end byte, item func() error) error {
	if d.next() != open {
		return d.errorf("want %q", open)
	}
	if d.pos++; d.next() == end {
		d.pos++
		return nil
	}
	for sep := byte(','); sep == ','; d.pos++ {
		if err := item(); err != nil {
			return err
		}
		if sep = d.next(); sep != ',' && sep != end {
			return d.errorf("want ',' or %q", end)
		}
	}
	return nil
}

// object reads one object into fields, the targets of names in order. A
// member name binds by exact match first, then case-insensitively
// (strings.EqualFold), as in encoding/json; an unknown or repeated one is an
// error.
func (d *decoder) object(names []string, fields ...any) error {
	var seen uint
	return d.list('{', '}', func() error {
		d.next()
		at := d.pos
		key, err := d.str()
		if err != nil {
			return err
		}
		f := slices.Index(names, key)
		if f < 0 {
			f = slices.IndexFunc(names, func(n string) bool { return strings.EqualFold(key, n) })
		}
		switch {
		case f < 0:
			return fmt.Errorf("spec: offset %d: unknown field %q", at, key)
		case seen&(1<<f) != 0:
			return fmt.Errorf("%w %q at offset %d", ErrDuplicateField, key, at)
		}
		seen |= 1 << f
		if d.next() != ':' {
			return d.errorf("want ':'")
		}
		d.pos++
		return d.value(fields[f])
	})
}

// array reads one array: [] is an empty slice. The elements are read on the
// stack, so the result is the one allocation.
func array[T any](d *decoder) ([]T, error) {
	var buf [8]T
	elems := buf[:0]
	err := d.list('[', ']', func() error {
		elems = append(elems, *new(T))
		return d.value(&elems[len(elems)-1])
	})
	out := make([]T, len(elems))
	copy(out, elems)
	return out, err
}

// value reads one value into v, a pointer to a schema type. Every target
// is still zero, as duplicate fields are refused, so null leaves it as it is:
// a nil pointer or slice, a zero Pred or Dim.
func (d *decoder) value(v any) (err error) {
	if d.literal("null") {
		return nil
	}
	switch v := v.(type) {
	case *QuerySpec:
		return d.object(querySpecFields, &v.Template, &v.Instance, &v.Fact, &v.FactPreds, &v.Dims)
	case *Dim:
		return d.object(dimFields, &v.Dim, &v.FactFK, &v.DimKey, &v.Preds, &v.ForceHash, &v.ForceIndex)
	case *Pred:
		return d.object(predFields, &v.Col, &v.Lo, &v.Hi)
	case *[]Pred:
		*v, err = array[Pred](d)
	case *[]Dim:
		*v, err = array[Dim](d)
	case *string:
		*v, err = d.str()
	case *int:
		var n int64
		n, err = d.int(strconv.IntSize)
		*v = int(n)
	case **int64:
		var n int64
		n, err = d.int(64)
		*v = &n
	case *bool:
		if *v = d.literal("true"); !*v && !d.literal("false") {
			err = d.errorf("want true, false or null")
		}
	}
	return err
}

// int reads an integer: a number in JSON's grammar that strconv.ParseInt(s,
// 10, bits) also accepts, so a fraction, an exponent or overflow is an error.
func (d *decoder) int(bits int) (int64, error) {
	d.next()
	start := d.pos
	for d.pos < len(d.in) && strings.IndexByte("+-.0123456789Ee", d.in[d.pos]) >= 0 {
		d.pos++
	}
	tok := d.in[start:d.pos]
	digits := strings.TrimPrefix(tok, "-")
	n, err := strconv.ParseInt(tok, 10, bits)
	if err != nil || tok[0] == '+' || len(digits) > 1 && digits[0] == '0' {
		return 0, fmt.Errorf("spec: offset %d: want an int%d, have %q", start, bits, tok)
	}
	return n, nil
}

// str reads a string and returns its value. Escapes are decoded and surrogate pairs joined; a lone surrogate and each
// invalid UTF-8 byte become U+FFFD, as in encoding/json. A control character
// is an error.
func (d *decoder) str() (string, error) {
	if d.next() != '"' {
		return "", d.errorf("want a string")
	}
	start := d.pos + 1
	for i := start; i < len(d.in); i++ {
		if c := d.in[i]; c == '"' {
			d.pos = i + 1
			return d.in[start:i], nil
		} else if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			break
		}
	}
	d.pos = start
	out := d.scratch[:0]
	for ; d.pos < len(d.in); d.pos++ {
		switch c := d.in[d.pos]; {
		case c == '"':
			d.pos++
			d.scratch = out
			return string(out), nil
		case c < ' ':
			return "", d.errorf("control character in string")
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRuneInString(d.in[d.pos:])
			out = utf8.AppendRune(out, r)
			d.pos += n - 1
		case c != '\\':
			out = append(out, c)
		case d.hex4(d.pos) >= 0:
			r := d.hex4(d.pos)
			if d.pos += 5; utf16.IsSurrogate(r) {
				if r = utf16.DecodeRune(r, d.hex4(d.pos+1)); r != utf8.RuneError {
					d.pos += 6
				}
			}
			out = utf8.AppendRune(out, r)
		case d.pos+1 < len(d.in) && strings.IndexByte(`"\/bfnrt`, d.in[d.pos+1]) >= 0:
			d.pos++
			out = append(out, "\"\\/\b\f\n\r\t"[strings.IndexByte(`"\/bfnrt`, d.in[d.pos])])
		default:
			return "", d.errorf("bad escape")
		}
	}
	return "", d.errorf("unterminated string")
}

// hex4 decodes the \uXXXX escape at i, or returns -1.
func (d *decoder) hex4(i int) rune {
	if i+6 > len(d.in) || d.in[i] != '\\' || d.in[i+1] != 'u' {
		return -1
	}
	v, err := strconv.ParseUint(d.in[i+2:i+6], 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}
