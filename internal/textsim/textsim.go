// Package textsim measures content similarity between posts.
//
// The paper (§6.1) declares a Mastodon status "similar" to a tweet when
// the cosine similarity of their SBERT sentence embeddings exceeds 0.7,
// and "identical" when the texts match exactly. SBERT is a closed,
// non-Go ML dependency, so textsim substitutes a deterministic hashed
// n-gram embedding: texts are tokenized, word unigrams/bigrams and
// character trigrams are feature-hashed into a fixed-size vector, and
// similarity is the cosine of those vectors.
//
// The substitution preserves the only property the analysis relies on:
// near-duplicate texts (cross-posted content, light edits, re-phrasings
// sharing most tokens) score high, and independent texts score low. The
// absolute scale differs from SBERT, so the default threshold is
// recalibrated (see DefaultThreshold) rather than copied blindly.
//
// # Exact sparse scan
//
// Index.BestMatch returns, bit for bit, what a dense scan calling Cosine
// on every row returns, with about a third of the arithmetic on
// post-length texts (a status has ~80 of 256 coordinates nonzero). It
// lists the query's nonzero coordinates in ascending order and sums each
// row's dot product over those alone, in one float64 accumulator per row.
// That gives the same sum because:
//
//   - a float32×float32 product is exact in float64 (24+24 significand
//     bits fit in 53), so no term is rounded, and a fused multiply-add
//     cannot change one either;
//   - every skipped term is ±0, and adding ±0 never changes a sum that
//     starts at +0: a nonzero sum stays as it is, and +0 stays +0. Exact
//     cancellation also gives +0 under round-to-nearest, so even the sign
//     of a zero dot product agrees;
//   - the remaining terms are added in the dense loop's order.
//
// Splitting one row's sum across several accumulators, or summing in
// float32, would change the rounding, so the kernel does neither. Its
// speed comes from skipping the zeros and from scoring four rows per pass
// over the query.
package textsim

import (
	"math"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Dim is the embedding dimensionality. 256 buckets keeps vectors small
// while making random collisions rare for post-length texts.
const Dim = 256

// DefaultThreshold is the cosine above which two posts count as
// "similar". The paper uses 0.7 on SBERT embeddings; hashed n-gram
// cosines for paraphrases land in a comparable band, so we keep 0.7.
const DefaultThreshold = 0.7

// Vector is an embedding.
type Vector [Dim]float32

// span is one token's byte range inside a scratch buffer.
type span struct{ lo, hi int32 }

// scratch holds the tokenizer's reusable working set: all tokens of one
// text, lowercased, packed back to back in buf with their spans. Pooled
// so the Embed hot path performs no per-token allocations.
type scratch struct {
	buf   []byte
	spans []span
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (s *scratch) reset() {
	s.buf = s.buf[:0]
	s.spans = s.spans[:0]
}

// endToken closes the token started at byte offset start, dropping empty
// tokens.
func (s *scratch) endToken(start int) {
	if len(s.buf) > start {
		s.spans = append(s.spans, span{int32(start), int32(len(s.buf))})
	}
}

// token returns the i-th token's bytes.
func (s *scratch) token(i int) []byte {
	sp := s.spans[i]
	return s.buf[sp.lo:sp.hi]
}

// urlTrimSet is the trailing punctuation stripped from URL tokens.
const urlTrimSet = ".,;:!?)"

// hasPrefixFold reports whether s starts with prefix under ASCII case
// folding (prefix must be lowercase ASCII).
func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	for i := 0; i < len(prefix); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// tokenize splits text into the scratch buffer: fields are lowercased
// rune by rune; URLs are kept whole minus trailing punctuation; letters,
// digits, '#', '@' and '\” continue a token, anything else ends it.
func (s *scratch) tokenize(text string) {
	s.reset()
	field := func(f string) {
		if hasPrefixFold(f, "http://") || hasPrefixFold(f, "https://") {
			start := len(s.buf)
			for _, r := range f {
				s.buf = utf8.AppendRune(s.buf, unicode.ToLower(r))
			}
			for len(s.buf) > start && strings.IndexByte(urlTrimSet, s.buf[len(s.buf)-1]) >= 0 {
				s.buf = s.buf[:len(s.buf)-1]
			}
			s.endToken(start)
			return
		}
		start := len(s.buf)
		for _, r := range f {
			r = unicode.ToLower(r)
			switch {
			case unicode.IsLetter(r) || unicode.IsDigit(r):
				s.buf = utf8.AppendRune(s.buf, r)
			case r == '#' || r == '@' || r == '\'':
				s.buf = utf8.AppendRune(s.buf, r)
			default:
				s.endToken(start)
				start = len(s.buf)
			}
		}
		s.endToken(start)
	}
	// Manual field walk: strings.Fields would allocate the field slice.
	fieldStart := -1
	for i, r := range text {
		if unicode.IsSpace(r) {
			if fieldStart >= 0 {
				field(text[fieldStart:i])
				fieldStart = -1
			}
		} else if fieldStart < 0 {
			fieldStart = i
		}
	}
	if fieldStart >= 0 {
		field(text[fieldStart:])
	}
}

// Tokenize lowercases text and splits it into word tokens, folding
// punctuation. URLs are kept whole (cross-posters mirror links verbatim,
// which is a strong identity signal); @mentions keep their handle; #tags
// keep the tag.
func Tokenize(text string) []string {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.tokenize(text)
	if len(sc.spans) == 0 {
		return nil
	}
	tokens := make([]string, len(sc.spans))
	for i := range sc.spans {
		tokens[i] = string(sc.token(i))
	}
	return tokens
}

// FNV-1a constants; features hash incrementally over their byte parts so
// the hot path never materializes "u:"+tok style feature strings.
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

func fnvBytes(h uint32, s []byte) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}

func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * fnvPrime
	}
	return h
}

// sign maps a hash to +1/-1 so collisions cancel rather than pile up
// (signed feature hashing).
func sign(h uint32) float32 {
	if h&0x80000000 != 0 {
		return -1
	}
	return 1
}

// Embed converts text to its hashed n-gram embedding. The vector is L2
// normalized; a text with no tokens yields the zero vector.
func Embed(text string) Vector {
	var v Vector
	EmbedInto(&v, text)
	return v
}

// EmbedInto writes Embed(text) into v, overwriting it. It reuses pooled
// tokenizer scratch and hashes features incrementally, so it allocates
// nothing.
func EmbedInto(v *Vector, text string) {
	*v = Vector{}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.tokenize(text)
	add := func(h uint32, weight float32) {
		v[h%Dim] += sign(h>>8) * weight
	}
	n := len(sc.spans)
	for i := 0; i < n; i++ {
		tok := sc.token(i)
		// Unigram: hash of "u:"+tok.
		add(fnvBytes(fnvString(fnvOffset, "u:"), tok), 1)
		// Bigram: hash of "b:"+tok+" "+next.
		if i+1 < n {
			h := fnvBytes(fnvString(fnvOffset, "b:"), tok)
			h = (h ^ uint32(' ')) * fnvPrime
			add(fnvBytes(h, sc.token(i+1)), 1.5)
		}
		// Character trigrams catch inflection and small edits: "c:"+tri.
		if len(tok) >= 3 {
			for j := 0; j+3 <= len(tok); j++ {
				add(fnvBytes(fnvString(fnvOffset, "c:"), tok[j:j+3]), 0.4)
			}
		}
	}
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range v {
			v[i] *= inv
		}
	}
}

// Cache is a no-op, kept only so that code which still builds an
// analysis.Engine with one compiles; delete it with that code.
// Embeddings are not memoized: only the Fig. 14 pass embeds text, its
// texts rarely repeat (148 of 39,604 in one pass over a 300-migrant
// world), and a shared memo's lock would serialise its workers.
type Cache struct{}

// NewCache returns a no-op Cache.
func NewCache() *Cache { return &Cache{} }

// Cosine returns the cosine similarity of two embeddings in [-1, 1].
// Zero vectors yield 0.
func Cosine(a, b Vector) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return clamp(dot)
}

// clamp bounds a dot product of normalized vectors to [-1, 1] against
// float drift.
func clamp(dot float64) float64 {
	if dot > 1 {
		dot = 1
	}
	if dot < -1 {
		dot = -1
	}
	return dot
}

// Similarity is a convenience: Cosine(Embed(a), Embed(b)).
func Similarity(a, b string) float64 {
	return Cosine(Embed(a), Embed(b))
}

// Canonical strips the variance cross-posting bridges introduce
// (trailing ellipsis truncation marker, surrounding whitespace) without
// touching meaningful content. Two posts are Identical when their
// canonical forms are equal.
func Canonical(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "…")
	return strings.TrimSpace(s)
}

// Identical reports whether two posts carry exactly the same content
// after canonicalization, the paper's "identical" test.
func Identical(a, b string) bool {
	return Canonical(a) == Canonical(b)
}

// Index holds the embeddings of a set of texts, one row per text, so a
// user's whole timeline is embedded once and then scanned once per query
// (the Fig. 14 computation is quadratic per user).
type Index struct {
	Vectors []Vector
}

// NewIndex embeds texts into a new index.
func NewIndex(texts []string) *Index {
	ix := new(Index)
	ix.Reset(texts)
	return ix
}

// Reset re-embeds the index over texts in place. It reuses the rows'
// storage and grows it only when texts outnumber it, so a pooled Index
// stops allocating once it has seen its largest input.
func (ix *Index) Reset(texts []string) {
	if cap(ix.Vectors) < len(texts) {
		ix.Vectors = slices.Grow(ix.Vectors[:0], len(texts))
	}
	ix.Vectors = ix.Vectors[:len(texts)]
	for i, t := range texts {
		EmbedInto(&ix.Vectors[i], t)
	}
}

// BestMatch returns the index and cosine of the row closest to q, or
// (-1, 0) on an empty index. Every cosine equals Cosine(*q, row) bit for
// bit (see the package comment), and rows are compared with a strict
// greater-than in index order, so ties break to the lowest index.
func (ix *Index) BestMatch(q *Vector) (int, float64) {
	// q's nonzero coordinates in ascending order. A uint8 index needs no
	// bounds check on a row; the products need the values in float64.
	var (
		nzAt  [Dim]uint8
		nzVal [Dim]float64
	)
	n := 0
	for j, x := range q {
		if x != 0 {
			nzAt[n], nzVal[n] = uint8(j), float64(x)
			n++
		}
	}
	at, val := nzAt[:n], nzVal[:n]

	best, bestSim := -1, math.Inf(-1)
	rows := ix.Vectors
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		// Rows by pointer: ranging over values would copy 1 KB each.
		r0, r1, r2, r3 := &rows[i], &rows[i+1], &rows[i+2], &rows[i+3]
		var d0, d1, d2, d3 float64
		for k, j := range at {
			x := val[k]
			d0 += x * float64(r0[j])
			d1 += x * float64(r1[j])
			d2 += x * float64(r2[j])
			d3 += x * float64(r3[j])
		}
		for k, d := range [4]float64{d0, d1, d2, d3} {
			if s := clamp(d); s > bestSim {
				best, bestSim = i+k, s
			}
		}
	}
	for ; i < len(rows); i++ {
		r := &rows[i]
		var d float64
		for k, j := range at {
			d += val[k] * float64(r[j])
		}
		if s := clamp(d); s > bestSim {
			best, bestSim = i, s
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestSim
}
