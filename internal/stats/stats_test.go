package stats

import (
	"encoding/json"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 {
		t.Fatalf("N = %d", e.N())
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(5) != 0 || e.N() != 0 {
		t.Fatal("empty ECDF misbehaves")
	}
	if pts := e.Points(10); pts != nil {
		t.Fatal("empty ECDF has points")
	}
}

func TestECDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		e := NewECDF(raw)
		prev := -1.0
		for _, x := range []float64{-1e9, -10, 0, 1, 42, 1e9} {
			y := e.At(x)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	if got := e.Median(); got != 30 {
		t.Fatalf("median = %v", got)
	}
	if got := e.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := e.Quantile(1); got != 50 {
		t.Fatalf("q1 = %v", got)
	}
	if got := e.Quantile(0.2); got != 10 {
		t.Fatalf("q0.2 = %v", got)
	}
}

func TestQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewECDF(nil).Quantile(0.5)
}

func TestPoints(t *testing.T) {
	var samples []float64
	for i := 1; i <= 100; i++ {
		samples = append(samples, float64(i))
	}
	pts := NewECDF(samples).Points(10)
	if len(pts) != 10 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[9].Y != 1 {
		t.Fatalf("last point y = %v", pts[9].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y < pts[i-1].Y {
			t.Fatal("points not monotone")
		}
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty helpers")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Median([]float64{1, 100, 3}) != 3 {
		t.Fatal("median")
	}
}

func TestTopShareConcentration(t *testing.T) {
	// One giant group and 99 singletons: top 1% (= the giant) holds
	// 901/1000 of the mass.
	counts := []int{901}
	for i := 0; i < 99; i++ {
		counts = append(counts, 1)
	}
	pts := TopShareBy(counts, counts, 100)
	if len(pts) != 100 {
		t.Fatalf("%d points", len(pts))
	}
	if math.Abs(pts[0].Y-0.901) > 1e-9 {
		t.Fatalf("top 1%% share = %v", pts[0].Y)
	}
	if pts[99].Y != 1 {
		t.Fatalf("top 100%% share = %v", pts[99].Y)
	}
}

func TestTopShareMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		counts := make([]int, len(raw))
		total := 0
		for i, v := range raw {
			counts[i] = int(v)
			total += int(v)
		}
		pts := TopShareBy(counts, counts, 50)
		if total == 0 {
			return pts == nil
		}
		prev := 0.0
		for _, p := range pts {
			if p.Y < prev-1e-12 || p.Y > 1+1e-12 {
				return false
			}
			prev = p.Y
		}
		return math.Abs(pts[len(pts)-1].Y-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopShareBy(t *testing.T) {
	// Rank by size, accumulate migrants: the big-but-few-migrants group
	// still ranks first.
	rank := []int{1000, 10, 5, 1}
	mass := []int{50, 40, 5, 5}
	pts := TopShareBy(rank, mass, 4)
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[0].Y != 0.5 {
		t.Fatalf("top 25%% = %v, want 0.5", pts[0].Y)
	}
	if pts[1].Y != 0.9 {
		t.Fatalf("top 50%% = %v, want 0.9", pts[1].Y)
	}
	if pts[3].Y != 1 {
		t.Fatalf("top 100%% = %v", pts[3].Y)
	}
}

func TestTopShareByMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TopShareBy([]int{1}, []int{1, 2}, 10)
}

func TestGini(t *testing.T) {
	if g := Gini([]int{5, 5, 5, 5}); math.Abs(g) > 1e-9 {
		t.Fatalf("even gini = %v", g)
	}
	g := Gini([]int{0, 0, 0, 100})
	if g < 0.7 {
		t.Fatalf("concentrated gini = %v", g)
	}
	if Gini(nil) != 0 {
		t.Fatal("empty gini")
	}
}

func TestTopK(t *testing.T) {
	counts := map[string]int{"#fediverse": 50, "#mastodon": 50, "#nowplaying": 10, "#rare": 1}
	rows := TopK(counts, 3)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Tie between fediverse and mastodon broken alphabetically.
	if rows[0].Key != "#fediverse" || rows[1].Key != "#mastodon" {
		t.Fatalf("order %v", rows)
	}
	if rows[2].Key != "#nowplaying" {
		t.Fatalf("third %v", rows[2])
	}
}

func TestTopKAll(t *testing.T) {
	rows := TopK(map[string]int{"a": 1}, 0)
	if len(rows) != 1 {
		t.Fatal("k=0 should return all")
	}
}

func TestQuantileBuckets(t *testing.T) {
	values := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	b := QuantileBuckets(values, 4)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d (%v)", i, b[i], want[i], b)
		}
	}
}

func TestQuantileBucketsUnsorted(t *testing.T) {
	values := []float64{8, 1, 5, 3}
	b := QuantileBuckets(values, 2)
	if b[0] != 1 || b[1] != 0 {
		t.Fatalf("buckets %v", b)
	}
}

func TestQuantileBucketsProperty(t *testing.T) {
	f := func(raw []uint8, nb uint8) bool {
		n := int(nb%8) + 1
		values := make([]float64, len(raw))
		for i, v := range raw {
			values[i] = float64(v)
		}
		b := QuantileBuckets(values, n)
		if len(b) != len(values) {
			return false
		}
		for _, v := range b {
			if v < 0 || v >= n {
				return false
			}
		}
		// Larger value never lands in a smaller bucket.
		for i := range values {
			for j := range values {
				if values[i] < values[j] && b[i] > b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChord(t *testing.T) {
	c := NewChord()
	c.Add("mastodon.social", "sigmoid.social", 3)
	c.Add("mastodon.social", "historians.social", 2)
	c.Add("mastodon.online", "sigmoid.social", 1)
	c.Add("mastodon.social", "sigmoid.social", 1)

	if got := c.Flow("mastodon.social", "sigmoid.social"); got != 4 {
		t.Fatalf("flow = %d", got)
	}
	if c.Total() != 7 {
		t.Fatalf("total = %d", c.Total())
	}
	top := c.TopFlows(2)
	if len(top) != 2 || top[0].Count != 4 || top[0].To != "sigmoid.social" {
		t.Fatalf("top flows %v", top)
	}
	if c.Flow("unknown", "x") != 0 || c.Flow("mastodon.social", "unknown") != 0 {
		t.Fatal("unknown labels should be zero")
	}
}

func TestChordMatrixStaysSquare(t *testing.T) {
	c := NewChord()
	labels := []string{"a", "b", "c", "d", "e"}
	for i, from := range labels {
		for j, to := range labels {
			c.Add(from, to, i+j)
		}
	}
	if len(c.Flows) != 5 {
		t.Fatalf("%d rows", len(c.Flows))
	}
	for _, row := range c.Flows {
		if len(row) != 5 {
			t.Fatalf("row length %d", len(row))
		}
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.9604); got != "96.04%" {
		t.Fatalf("Percent = %q", got)
	}
}

func TestTopShareRealistic(t *testing.T) {
	// Zipf-ish instance sizes: verify the "top 25% hold ~95%+" shape the
	// paper reports is measurable by this code.
	var counts []int
	for i := 1; i <= 100; i++ {
		counts = append(counts, int(10000/math.Pow(float64(i), 1.5))+1)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	share := TopShareBy(counts, counts, 100)[24].Y
	if share < 0.8 {
		t.Fatalf("top-25%% share of zipf sizes = %v, want > 0.8", share)
	}
}

func BenchmarkECDFBuild(b *testing.B) {
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = float64(i * 7 % 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewECDF(samples)
	}
}

func BenchmarkTopShare(b *testing.B) {
	counts := make([]int, 16000)
	for i := range counts {
		counts[i] = i % 500
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopShareBy(counts, counts, 100)
	}
}

func TestECDFJSONRoundTrip(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 2})
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[1,2,2,3]" {
		t.Fatalf("marshalled ECDF = %s", b)
	}
	// Same multiset, different input order: identical bytes.
	b2, err := json.Marshal(NewECDF([]float64{2, 2, 3, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Fatalf("order-dependent marshal: %s vs %s", b, b2)
	}
	var back ECDF
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != 4 || back.Median() != 2 {
		t.Fatalf("round-trip ECDF: n=%d median=%v", back.N(), back.Median())
	}
	var empty *ECDF = NewECDF(nil)
	if b, _ := json.Marshal(empty); string(b) != "[]" {
		t.Fatalf("empty ECDF = %s", b)
	}
}
