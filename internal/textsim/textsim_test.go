package textsim

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"flock/internal/randx"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! Check https://mastodon.social/@alice. #TwitterMigration @bob@example.com")
	join := strings.Join(got, "|")
	for _, want := range []string{"hello", "world", "https://mastodon.social/@alice", "#twittermigration", "@bob@example"} {
		if !strings.Contains(join, want) {
			t.Fatalf("tokens %v missing %q", got, want)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if toks := Tokenize("   \n\t "); len(toks) != 0 {
		t.Fatalf("tokens of whitespace: %v", toks)
	}
}

func TestEmbedNormalized(t *testing.T) {
	v := Embed("the quick brown fox jumps over the lazy dog")
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Fatalf("norm = %v", norm)
	}
}

func TestEmbedEmptyIsZero(t *testing.T) {
	v := Embed("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty text embedding not zero")
		}
	}
	if Cosine(v, v) != 0 {
		t.Fatal("zero-vector cosine should be 0")
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	texts := []string{
		"Leaving the birdsite for good, find me at @alice@mastodon.social #TwitterMigration",
		"just posted a new blog about decentralized moderation",
	}
	for _, txt := range texts {
		if s := Similarity(txt, txt); math.Abs(s-1) > 1e-5 {
			t.Fatalf("self similarity = %v", s)
		}
	}
}

func TestNearDuplicateScoresHigh(t *testing.T) {
	a := "So excited to announce my new project on decentralized social networks, check it out!"
	b := "So excited to announce my new project on decentralized social networks, check it out"
	if s := Similarity(a, b); s < 0.9 {
		t.Fatalf("near-duplicate similarity = %v", s)
	}
	c := "Very excited to announce my brand new project on decentralized social networks today"
	if s := Similarity(a, c); s < DefaultThreshold {
		t.Fatalf("paraphrase similarity = %v, want >= %v", s, DefaultThreshold)
	}
}

func TestUnrelatedScoresLow(t *testing.T) {
	a := "Watching the football game tonight with friends at the pub"
	b := "New paper on quantum error correction published in Nature this morning"
	if s := Similarity(a, b); s > 0.35 {
		t.Fatalf("unrelated similarity = %v, want low", s)
	}
}

func TestCosineSymmetricProperty(t *testing.T) {
	f := func(a, b string) bool {
		s1 := Similarity(a, b)
		s2 := Similarity(b, a)
		return math.Abs(s1-s2) < 1e-9 && s1 >= -1 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentical(t *testing.T) {
	if !Identical("same post", "same post") {
		t.Fatal("exact match not identical")
	}
	if !Identical("truncated by bridge…", "truncated by bridge") {
		t.Fatal("ellipsis canonicalization failed")
	}
	if !Identical("  padded  ", "padded") {
		t.Fatal("whitespace canonicalization failed")
	}
	if Identical("a", "b") {
		t.Fatal("different texts identical")
	}
}

func TestClassify(t *testing.T) {
	tweet := "Excited to share our new measurement study of the fediverse migration!"
	if !Identical(tweet, tweet) {
		t.Fatal("a post is not identical to itself")
	}
	para := "Excited to share our brand new measurement study of the big fediverse migration"
	if Identical(para, tweet) || Similarity(para, tweet) < DefaultThreshold {
		t.Fatalf("paraphrase not similar: identical=%v sim=%v", Identical(para, tweet), Similarity(para, tweet))
	}
	other := "Good morning everyone, coffee time"
	if Identical(other, tweet) || Similarity(other, tweet) >= DefaultThreshold {
		t.Fatalf("unrelated post counts as similar: sim=%v", Similarity(other, tweet))
	}
}

func TestIndexBestMatch(t *testing.T) {
	texts := []string{
		"announcing my move to mastodon, follow me there",
		"what a goal in the match tonight",
		"new photos from my trip to iceland",
	}
	ix := NewIndex(texts)
	q := Embed("announcing my big move to mastodon, please follow me there")
	i, sim := ix.BestMatch(&q)
	if i != 0 {
		t.Fatalf("best match index = %d (sim %v)", i, sim)
	}
	if sim < DefaultThreshold {
		t.Fatalf("best match sim = %v", sim)
	}
}

func TestIndexEmpty(t *testing.T) {
	ix := NewIndex(nil)
	q := Embed("x")
	if i, s := ix.BestMatch(&q); i != -1 || s != 0 {
		t.Fatalf("empty index match = %d, %v", i, s)
	}
}

func TestDeterministicEmbedding(t *testing.T) {
	a := Embed("determinism matters for reproduction")
	b := Embed("determinism matters for reproduction")
	if a != b {
		t.Fatal("embedding not deterministic")
	}
}

func TestIndexSingleElement(t *testing.T) {
	ix := NewIndex([]string{"only one post here"})
	q := Embed("only one post here")
	i, s := ix.BestMatch(&q)
	if i != 0 || math.Abs(s-1) > 1e-5 {
		t.Fatalf("single-element match = %d, %v", i, s)
	}
	// Even a zero-vector query must land on index 0 (the only candidate).
	var zero Vector
	if i, s := ix.BestMatch(&zero); i != 0 || s != 0 {
		t.Fatalf("zero query against single element = %d, %v", i, s)
	}
}

func TestIndexAllZeroVectors(t *testing.T) {
	// Texts with no tokens embed to the zero vector; every cosine is 0
	// and the lowest index must win.
	ix := NewIndex([]string{"", "   ", "\t\n", "", ""})
	q := Embed("anything at all")
	i, s := ix.BestMatch(&q)
	if i != 0 || math.Float64bits(s) != 0 {
		t.Fatalf("all-zero index match = %d, %v", i, s)
	}
}

func TestBestMatchTieBreaksLowestIndex(t *testing.T) {
	// Duplicate texts give exactly equal cosines; the lowest index must
	// be picked, whether the tie falls inside one four-row block (rows
	// 1-3), across blocks (row 5) or in the tail after the last block
	// (row 8).
	dup := "announcing my move to mastodon today"
	texts := []string{
		"completely unrelated filler words",
		dup, dup, dup,
		"more unrelated filler",
		dup,
		"filler again", "and again",
		dup,
	}
	ix := NewIndex(texts)
	q := Embed(dup)
	if i, s := ix.BestMatch(&q); i != 1 || math.Abs(s-1) > 1e-5 {
		t.Fatalf("tie-break picked %d (sim %v), want 1", i, s)
	}
	// Without rows 1-3 the winner is row 2 of the rest: the first
	// duplicate past a full block.
	ix = NewIndex(append([]string{texts[0], texts[4]}, texts[5:]...))
	if i, _ := ix.BestMatch(&q); i != 2 {
		t.Fatalf("tie-break picked %d, want 2", i)
	}
}

// denseBestMatch is the scan BestMatch replaces: Cosine against every row
// in index order, a strictly greater cosine wins.
func denseBestMatch(rows []Vector, q Vector) (int, float64) {
	best, bestSim := -1, math.Inf(-1)
	for i := range rows {
		if s := Cosine(q, rows[i]); s > bestSim {
			best, bestSim = i, s
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestSim
}

// FuzzBestMatch checks BestMatch against denseBestMatch bit for bit on an
// index of 0-9 rows, cycling through the '|'-separated texts of corpus,
// so every row count mod 4, the empty index and duplicate rows (exact
// ties) all occur. The index is reset from a larger one first, as a
// pooled index would be.
func FuzzBestMatch(f *testing.F) {
	f.Add("announcing my move to mastodon", uint8(9), "announcing my move to mastodon|unrelated filler")
	f.Add("", uint8(5), "some text|more text")
	f.Add("query", uint8(0), "")
	f.Add("   ", uint8(3), "|  |\t")
	f.Add("same post same post", uint8(4), "same post same post")
	f.Add("Leaving the birdsite! https://mastodon.social/@alice #TwitterMigration", uint8(7),
		"leaving the birdsite https://mastodon.social/@alice|#twittermigration|LEAVING THE BIRDSITE!|@alice@mastodon.social")
	f.Fuzz(func(t *testing.T, query string, rows uint8, corpus string) {
		parts := strings.Split(corpus, "|")
		texts := make([]string, rows%10)
		for i := range texts {
			texts[i] = parts[i%len(parts)]
		}
		ix := NewIndex(append(slices.Clone(texts), "stale row", "another stale row"))
		ix.Reset(texts)
		for i, txt := range texts {
			if ix.Vectors[i] != Embed(txt) {
				t.Fatalf("row %d after Reset differs from Embed(%q)", i, txt)
			}
		}
		q := Embed(query)
		gi, gs := ix.BestMatch(&q)
		wi, ws := denseBestMatch(ix.Vectors, q)
		if gi != wi || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("BestMatch = (%d, %v [%#x]), dense scan = (%d, %v [%#x])",
				gi, gs, math.Float64bits(gs), wi, ws, math.Float64bits(ws))
		}
	})
}

// TestBestMatchExactOnSparseVectors drives the kernel with vectors no
// text embeds to: unnormalized values with wide exponents, many zeros,
// negative zeros, and rows whose dot product with the query cancels to
// exactly zero. Each row's cosine must still match Cosine bit for bit.
func TestBestMatchExactOnSparseVectors(t *testing.T) {
	src := randx.New(15)
	vec := func(density float64) Vector {
		var v Vector
		for j := range v {
			switch {
			case src.Bool(density):
				v[j] = float32(src.NormFloat64() * math.Pow(2, float64(src.Intn(40)-20)))
			case src.Bool(0.1):
				v[j] = float32(math.Copysign(0, -1))
			}
		}
		return v
	}
	for trial := 0; trial < 200; trial++ {
		q := vec(0.3)
		// Pair each odd coordinate with the even one before it, so the
		// row (q[0], -q[0], q[2], -q[2], ...) cancels term by term.
		for j := 1; j < Dim; j += 2 {
			q[j] = q[j-1]
		}
		cancel := q
		for j := 1; j < Dim; j += 2 {
			cancel[j] = -cancel[j]
		}
		rows := make([]Vector, src.Intn(10))
		for i := range rows {
			switch src.Intn(3) {
			case 0:
				rows[i] = vec(0.3)
			case 1:
				rows[i] = cancel
			default:
				rows[i] = vec(0.05)
			}
		}
		ix := &Index{Vectors: rows}
		gi, gs := ix.BestMatch(&q)
		wi, ws := denseBestMatch(rows, q)
		if gi != wi || math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("trial %d: BestMatch = (%d, %#x), dense = (%d, %#x)",
				trial, gi, math.Float64bits(gs), wi, math.Float64bits(ws))
		}
		for i := range rows {
			one := &Index{Vectors: rows[i : i+1]}
			if _, s := one.BestMatch(&q); math.Float64bits(s) != math.Float64bits(Cosine(q, rows[i])) {
				t.Fatalf("trial %d row %d: cosine %#x, Cosine %#x",
					trial, i, math.Float64bits(s), math.Float64bits(Cosine(q, rows[i])))
			}
		}
	}
	if s := Cosine(vec(0), vec(0)); math.Float64bits(s) != 0 {
		t.Fatalf("zero vectors' cosine %#x, want +0", math.Float64bits(s))
	}
}

func BenchmarkEmbed(b *testing.B) {
	text := "Leaving Twitter after 12 years. You can find me at @user@mastodon.social — let's build the fediverse together! #TwitterMigration #Mastodon"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Embed(text)
	}
}

// BenchmarkBestMatch is the Fig. 14 kernel on its own: one status
// against a 175-row index (world 99's mean tweets per migrant). The
// status has ~80 nonzero coordinates, as the pass's statuses do on
// average; it allocates nothing.
func BenchmarkBestMatch(b *testing.B) {
	words := strings.Fields("mastodon twitter fediverse instance migration server " +
		"follow account post timeline moderation community open source " +
		"decentralized network people leaving staying today week news " +
		"science music photo art game code research paper data")
	src := randx.New(175)
	sentence := func(n int) string {
		ws := make([]string, n)
		for i := range ws {
			ws[i] = words[src.Intn(len(words))]
		}
		return strings.Join(ws, " ")
	}
	texts := make([]string, 175)
	for i := range texts {
		texts[i] = sentence(8 + src.Intn(12))
	}
	ix := NewIndex(texts)
	q := Embed("so excited to finally move our research group account to a decentralized mastodon instance this week, come follow us")
	nonzero := 0
	for _, x := range q {
		if x != 0 {
			nonzero++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.BestMatch(&q)
	}
	b.ReportMetric(float64(nonzero), "nonzeros")
}
