package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sources with equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split("users")
	root2 := New(7)
	c2 := root2.Split("users")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not stable for equal parent state and label")
		}
	}
	// Different labels must give different streams.
	r := New(7)
	a := r.Split("a")
	r2 := New(7)
	b := r2.Split("b")
	if a.Uint64() == b.Uint64() {
		t.Fatal("Split streams for different labels collide immediately")
	}
}

func TestSplitNStable(t *testing.T) {
	mk := func(n int) uint64 {
		return New(9).SplitN("user", n).Uint64()
	}
	if mk(3) != mk(3) {
		t.Fatal("SplitN not stable")
	}
	if mk(3) == mk(4) {
		t.Fatal("SplitN adjacent streams collide")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want about 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBool(t *testing.T) {
	s := New(13)
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	n := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if s.Bool(0.3) {
			n++
		}
	}
	got := float64(n) / trials
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(17)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(19)
	for i := 0; i < 1000; i++ {
		if s.LogNormal(2, 1.5) <= 0 {
			t.Fatal("LogNormal returned non-positive value")
		}
	}
}

func TestPoissonMean(t *testing.T) {
	for _, mean := range []float64{0.5, 3, 12, 80} {
		s := New(uint64(mean * 100))
		const n = 50000
		total := 0
		for i := 0; i < n; i++ {
			total += s.Poisson(mean)
		}
		got := float64(total) / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Fatalf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	if New(1).Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
	if New(1).Poisson(-1) != 0 {
		t.Fatal("Poisson(-1) != 0")
	}
}

func TestExpMean(t *testing.T) {
	s := New(23)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(2)
	}
	if math.Abs(sum/n-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean = %v, want 0.5", sum/n)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		n := 1 + int(seed%50)
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	s := New(37)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatal("Shuffle changed multiset of elements")
	}
}

func TestZipfHeadHeavy(t *testing.T) {
	z := NewZipf(1000, 1.2)
	s := New(41)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Sample(s)]++
	}
	if counts[0] < counts[1] || counts[1] < counts[10] {
		t.Fatalf("Zipf not head-heavy: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
	// Rank 0 should take a large share under alpha=1.2.
	if float64(counts[0])/n < 0.10 {
		t.Fatalf("Zipf rank-0 share too small: %v", float64(counts[0])/n)
	}
}

func TestZipfRange(t *testing.T) {
	z := NewZipf(10, 1.0)
	s := New(43)
	for i := 0; i < 10000; i++ {
		if r := z.Sample(s); r < 0 || r >= 10 {
			t.Fatalf("Zipf sample out of range: %d", r)
		}
	}
	if z.N() != 10 {
		t.Fatalf("N() = %d", z.N())
	}
}

func TestWeighted(t *testing.T) {
	w := NewWeighted([]float64{1, 0, 3})
	s := New(47)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Sample(s)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weighted ratio = %v, want about 3", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	for _, ws := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWeighted(%v) did not panic", ws)
				}
			}()
			NewWeighted(ws)
		}()
	}
}

func TestPick(t *testing.T) {
	s := New(53)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(s, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick covered %d of 3 elements", len(seen))
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(16000, 1.1)
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample(s)
	}
}
