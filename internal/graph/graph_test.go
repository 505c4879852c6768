package graph

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"flock/internal/randx"
)

// HasEdge reports whether u follows v.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || g.outS[u] == nil {
		return false
	}
	_, ok := g.outS[u][int32(v)]
	return ok
}

// Edges returns the total edge count.
func (g *Graph) Edges() int {
	t := 0
	for _, adj := range g.out {
		t += len(adj)
	}
	return t
}

func TestAddEdge(t *testing.T) {
	g := New(3)
	if !g.AddEdge(0, 1) {
		t.Fatal("first add failed")
	}
	if g.AddEdge(0, 1) {
		t.Fatal("duplicate add succeeded")
	}
	if g.AddEdge(1, 1) {
		t.Fatal("self loop added")
	}
	if g.AddEdge(0, 5) || g.AddEdge(-1, 0) {
		t.Fatal("out-of-range edge added")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge direction wrong")
	}
	if g.OutDegree(0) != 1 || g.InDegree(1) != 1 || g.Edges() != 1 {
		t.Fatal("degree bookkeeping wrong")
	}
}

func TestFolloweesFollowersConsistent(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(3, 1)
	if got := g.Followees(0); len(got) != 2 {
		t.Fatalf("followees(0) = %v", got)
	}
	if got := g.Followers(1); len(got) != 2 {
		t.Fatalf("followers(1) = %v", got)
	}
}

func TestDegreeConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randx.New(seed)
		g, _, err := Generate(Config{N: 60, Communities: 4, MeanOut: 5, IntraBias: 0.7, Reciprocity: 0.3}, rng)
		if err != nil {
			return false
		}
		sumOut, sumIn := 0, 0
		for u := 0; u < g.N(); u++ {
			sumOut += g.OutDegree(u)
			sumIn += g.InDegree(u)
		}
		return sumOut == sumIn && sumOut == g.Edges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{N: 100, Communities: 5, MeanOut: 8, IntraBias: 0.8, Reciprocity: 0.2}
	g1, c1, _ := Generate(cfg, randx.New(99))
	g2, c2, _ := Generate(cfg, randx.New(99))
	if g1.Edges() != g2.Edges() {
		t.Fatalf("edge counts differ: %d vs %d", g1.Edges(), g2.Edges())
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("communities differ")
		}
	}
	for u := 0; u < g1.N(); u++ {
		a, b := g1.Followees(u), g2.Followees(u)
		if len(a) != len(b) {
			t.Fatalf("node %d degree differs", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d adjacency differs", u)
			}
		}
	}
}

func TestGenerateRejectsBadN(t *testing.T) {
	if _, _, err := Generate(Config{N: 0}, randx.New(1)); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestGenerateMeanOutDegree(t *testing.T) {
	g, _, err := Generate(Config{N: 2000, Communities: 10, MeanOut: 20, IntraBias: 0.8, Reciprocity: 0.2}, randx.New(7))
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(g.Edges()) / float64(g.N())
	// Reciprocity adds extra edges; accept a broad band.
	if mean < 10 || mean > 50 {
		t.Fatalf("mean out-degree = %v, want around 20-ish", mean)
	}
	mutual := 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Followees(u) {
			if g.HasEdge(int(v), u) {
				mutual++
			}
		}
	}
	if mutual == 0 {
		t.Fatal("generator with Reciprocity=0.2 produced no mutual edges")
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	g, _, _ := Generate(Config{N: 3000, Communities: 6, MeanOut: 15, IntraBias: 0.7, Reciprocity: 0.2}, randx.New(13))
	degrees := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		degrees[v] = g.InDegree(v)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degrees)))
	total := 0
	for _, d := range degrees {
		total += d
	}
	top := 0
	for _, d := range degrees[:g.N()/20] { // top 5%
		top += d
	}
	share := float64(top) / float64(total)
	if share < 0.12 {
		t.Fatalf("top-5%% in-degree share = %v, want heavy tail", share)
	}
	// Max degree should dwarf the median.
	med := degrees[g.N()/2]
	if degrees[0] < med*4 {
		t.Fatalf("max degree %d vs median %d: tail too light", degrees[0], med)
	}
}

func TestGenerateCommunityBias(t *testing.T) {
	g, comm, _ := Generate(Config{N: 1000, Communities: 5, MeanOut: 12, IntraBias: 0.8, Reciprocity: 0.1}, randx.New(21))
	intra, total := 0, 0
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Followees(u) {
			total++
			if comm[u] == comm[int(v)] {
				intra++
			}
		}
	}
	frac := float64(intra) / float64(total)
	if frac < 0.6 {
		t.Fatalf("intra-community edge fraction = %v, want > 0.6", frac)
	}
}

func TestSortAdjacency(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.SortAdjacency()
	f := g.Followees(0)
	for i := 1; i < len(f); i++ {
		if f[i-1] >= f[i] {
			t.Fatalf("not sorted: %v", f)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := Config{N: 5000, Communities: 12, MeanOut: 20, IntraBias: 0.8, Reciprocity: 0.25}
	for i := 0; i < b.N; i++ {
		if _, _, err := Generate(cfg, randx.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCompactPreservesAdjacency(t *testing.T) {
	g, _, err := Generate(Config{N: 200, Communities: 4, MeanOut: 10, IntraBias: 0.7, Reciprocity: 0.3}, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Generate already packed; rebuild an unpacked twin to diff, adding
	// the edges in descending order so that packing has to sort them.
	twin := New(g.N())
	for u := g.N() - 1; u >= 0; u-- {
		f := g.Followees(u)
		for i := len(f) - 1; i >= 0; i-- {
			twin.AddEdge(u, int(f[i]))
		}
	}
	twin.SortAdjacency()
	for u := 0; u < g.N(); u++ {
		if a, b := g.Followees(u), twin.Followees(u); !slices.Equal(a, b) {
			t.Fatalf("node %d followees %v != %v", u, b, a)
		}
		if a, b := g.Followers(u), twin.Followers(u); !slices.Equal(a, b) {
			t.Fatalf("node %d followers %v != %v", u, b, a)
		}
	}
}

func TestAddEdgeAfterCompactDoesNotCorruptNeighbors(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.SortAdjacency()
	before := append([]int32(nil), g.Followees(1)...)
	// Appending to node 0's packed view must not overwrite node 1's
	// segment in the shared flat array.
	g.AddEdge(0, 3)
	after := g.Followees(1)
	if len(after) != len(before) {
		t.Fatalf("node 1 adjacency length changed: %v -> %v", before, after)
	}
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("node 1 adjacency corrupted: %v -> %v", before, after)
		}
	}
	if g.OutDegree(0) != 3 || !g.HasEdge(0, 3) {
		t.Fatal("post-compact AddEdge lost")
	}
}
