// Package serialize converts physical plan trees into token sequences — the
// paper's Algorithm 2. The serialized plan, not the SQL text, is Pythia's
// model input: it encodes join order, access paths, and the predicates
// attached to each scan, which is what determines the blocks a query reads.
//
// The serializer performs a preorder traversal. Scan nodes contribute their
// scan-type token ([SEQ]/[IDX]), the database object name(s), and one
// [PRED] col op value triple per filter predicate; every other node
// contributes only its operator token. Sort and hash-build internals do not
// change page access order, so — like the paper — Sort serializes as a bare
// token and nothing special is emitted for hashing.
//
// Predicate constants are quantized into per-column buckets before
// tokenization. The paper tokenizes raw values drawn from templated
// parameter domains; bucketing keeps the vocabulary finite while preserving
// what the model needs — *where in the column's domain* the constant falls,
// which is what moves the accessed block set.
package serialize

import (
	"fmt"
	"math"
	"strconv"

	"github.com/pythia-db/pythia/internal/plan"
)

// Token is one unit of the serialized plan.
type Token = string

// Reserved vocabulary tokens.
const (
	TokenPad = "[PAD]"
	TokenUnk = "[UNK]"
	TokenCLS = "[CLS]" // prepended; its final embedding is the query vector
)

// Config controls serialization.
type Config struct {
	// ValueBuckets is the number of quantization buckets per column domain
	// (default 32).
	ValueBuckets int
	// SingleResolution disables the multi-resolution value-token ladder and
	// emits exactly one token per constant at ValueBuckets resolution (an
	// ablation knob; multi-resolution is the default and the better choice).
	SingleResolution bool
}

// DefaultConfig returns the configuration the experiments use.
func DefaultConfig() Config { return Config{ValueBuckets: 32} }

func (c Config) buckets() int {
	if c.ValueBuckets <= 0 {
		return 32
	}
	return c.ValueBuckets
}

func kindToken(k plan.Kind) Token {
	switch k {
	case plan.KindSeqScan:
		return "[SEQ]"
	case plan.KindIndexScan:
		return "[IDX]"
	case plan.KindNestedLoop:
		return "[NLJ]"
	case plan.KindHashJoin:
		return "[HJ]"
	case plan.KindFilter:
		return "[FILTER]"
	case plan.KindAgg:
		return "[AGG]"
	case plan.KindSort:
		return "[SORT]"
	default:
		return TokenUnk
	}
}

// valueTokens appends the tokens of constant v for column col of the node's
// relation to out. It quantizes v at three resolutions — buckets/4,
// buckets, and buckets×4 — so the encoder sees the constant's fine position
// whenever training covered that fine bucket and degrades gracefully to the
// coarser tokens (the fine token becomes [UNK]) otherwise. A single resolution either blurs nearby
// constants together (too coarse for narrow-range templates) or fragments
// the training data (too fine for small workloads); multi-resolution avoids
// both failure modes.
func valueTokens(out []Token, n *plan.Node, col string, v int64, cfg Config) []Token {
	buckets := cfg.buckets()
	if v == math.MinInt64 {
		return append(out, "v:open_lo")
	}
	if v == math.MaxInt64 {
		return append(out, "v:open_hi")
	}
	// The tokens are written into buf and cut from one string: one
	// allocation per constant.
	var buf [96]byte
	if n.Rel != nil {
		if ci := n.Rel.ColumnIndex(col); ci >= 0 {
			lo, hi := n.Rel.Columns[ci].Gen.Domain()
			if hi > lo {
				span := float64(hi - lo)
				rungs := [3]int{buckets / 4, buckets, buckets * 4}
				if cfg.SingleResolution {
					rungs = [3]int{buckets}
				}
				var cuts [4]int
				b, k := buf[:0], 0
				for _, res := range rungs {
					if res < 2 {
						continue
					}
					bucket := int(float64(v-lo) / span * float64(res))
					if bucket < 0 {
						bucket = 0
					}
					if bucket >= res {
						bucket = res - 1
					}
					b = append(append(b, "v:"...), col...)
					b = strconv.AppendInt(append(b, '@'), int64(res), 10)
					b = strconv.AppendInt(append(b, '#'), int64(bucket), 10)
					k++
					cuts[k] = len(b)
				}
				toks := string(b)
				for i := 1; i <= k; i++ {
					out = append(out, toks[cuts[i-1]:cuts[i]])
				}
				return out
			}
		}
	}
	return append(out, string(strconv.AppendInt(append(buf[:0], "v:"...), v, 10)))
}

// serializeNode emits one node's tokens (Algorithm 2, SerializePlanNode).
func serializeNode(n *plan.Node, out []Token, cfg Config) []Token {
	out = append(out, kindToken(n.Kind))
	isScan := n.Kind == plan.KindSeqScan || n.Kind == plan.KindIndexScan
	if !isScan {
		return out
	}
	if n.Index != nil {
		out = append(out, "o:"+n.Index.Name)
	}
	if n.Rel != nil {
		out = append(out, "o:"+n.Rel.Name)
	}
	for _, p := range n.Preds {
		out = append(out, "[PRED]", "c:"+p.Col)
		switch {
		case p.IsEquality():
			out = append(out, "op:=")
			out = valueTokens(out, n, p.Col, p.Lo, cfg)
		default:
			if p.Lo != math.MinInt64 {
				out = append(out, "op:>=")
				out = valueTokens(out, n, p.Col, p.Lo, cfg)
			}
			if p.Hi != math.MaxInt64 {
				out = append(out, "op:<=")
				out = valueTokens(out, n, p.Col, p.Hi, cfg)
			}
		}
	}
	return out
}

// Serialize tokenizes the plan tree in preorder (Algorithm 2,
// SerializeQueryPlan), prefixed with [CLS].
func Serialize(root *plan.Node, cfg Config) []Token {
	out := append(make([]Token, 0, 64), TokenCLS) // a DSB plan is 36–57 tokens
	root.Walk(func(n *plan.Node) {
		out = serializeNode(n, out, cfg)
	})
	return out
}

// Vocab maps tokens to dense integer ids. Id 0 is [PAD], id 1 is [UNK];
// unknown tokens at encode time map to [UNK], which is how out-of-
// distribution constants degrade gracefully instead of crashing inference.
type Vocab struct {
	ids    map[string]int
	tokens []string
	frozen bool
}

// NewVocab returns a vocabulary containing only the reserved tokens.
func NewVocab() *Vocab {
	v := &Vocab{ids: make(map[string]int)}
	v.add(TokenPad)
	v.add(TokenUnk)
	v.add(TokenCLS)
	return v
}

func (v *Vocab) add(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	if v.frozen {
		return v.ids[TokenUnk]
	}
	id := len(v.tokens)
	v.ids[tok] = id
	v.tokens = append(v.tokens, tok)
	return id
}

// AddAll registers every token of a training sequence.
func (v *Vocab) AddAll(toks []Token) {
	for _, t := range toks {
		v.add(t)
	}
}

// Freeze stops the vocabulary from growing; encoding unseen tokens then
// yields [UNK]. Training freezes the vocabulary before evaluation.
func (v *Vocab) Freeze() { v.frozen = true }

// Size returns the number of distinct tokens (including reserved ones).
func (v *Vocab) Size() int { return len(v.tokens) }

// Encode maps tokens to ids, substituting [UNK] for unknowns when frozen
// (and growing the vocabulary otherwise).
func (v *Vocab) Encode(toks []Token) []int {
	out := make([]int, len(toks))
	for i, t := range toks {
		if id, ok := v.ids[t]; ok {
			out[i] = id
		} else {
			out[i] = v.add(t)
		}
	}
	return out
}

// Tokens returns the vocabulary's token list in id order (persistence).
func (v *Vocab) Tokens() []string {
	out := make([]string, len(v.tokens))
	copy(out, v.tokens)
	return out
}

// VocabFromTokens rebuilds a frozen vocabulary from a persisted token list.
// The list must begin with the reserved tokens in their canonical order.
func VocabFromTokens(tokens []string) (*Vocab, error) {
	if len(tokens) < 3 || tokens[0] != TokenPad || tokens[1] != TokenUnk || tokens[2] != TokenCLS {
		return nil, fmt.Errorf("serialize: persisted vocabulary missing reserved prefix")
	}
	v := &Vocab{ids: make(map[string]int, len(tokens))}
	for i, t := range tokens {
		if _, dup := v.ids[t]; dup {
			return nil, fmt.Errorf("serialize: persisted vocabulary has duplicate token %q", t)
		}
		v.ids[t] = i
		v.tokens = append(v.tokens, t)
	}
	v.frozen = true
	return v, nil
}

// Token returns the token string for an id (or [UNK] if out of range).
func (v *Vocab) Token(id int) string {
	if id < 0 || id >= len(v.tokens) {
		return TokenUnk
	}
	return v.tokens[id]
}
