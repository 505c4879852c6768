// Package stats implements the descriptive statistics the paper's
// analysis uses: empirical CDFs (most figures are CDF plots), quantiles
// and medians, top-share/Lorenz concentration curves (Fig. 5), histograms
// and frequency tables (Figs. 4, 12, 15), and the chord matrix behind the
// instance-switching plot (Fig. 9).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64
// samples. It stores a sorted copy of the input.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples. The input slice is not modified.
// An empty input yields a valid ECDF whose At is always 0.
func NewECDF(samples []float64) *ECDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Index of first element > x.
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method on the sorted samples. It panics on empty data.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		panic("stats: Quantile of empty ECDF")
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return e.sorted[i]
}

// Median is Quantile(0.5).
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Points returns up to n evenly spaced (x, P(X<=x)) points suitable for
// plotting the CDF as the paper does. If the ECDF has fewer samples than
// n, one point per sample is returned.
func (e *ECDF) Points(n int) []Point {
	if len(e.sorted) == 0 {
		return nil
	}
	if n <= 0 || n > len(e.sorted) {
		n = len(e.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * len(e.sorted) / n
		if idx > len(e.sorted) {
			idx = len(e.sorted)
		}
		x := e.sorted[idx-1]
		pts = append(pts, Point{X: x, Y: float64(idx) / float64(len(e.sorted))})
	}
	return pts
}

// Point is an (x, y) pair on a curve.
type Point struct {
	X, Y float64
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// Median returns the sample median (0 for empty input).
func Median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return NewECDF(samples).Median()
}

// TopShareBy computes the paper's Fig. 5 curve: groups are ranked
// descending by rank (e.g. instance size from the index) and, for each
// fraction p of the top-ranked groups, the curve gives the fraction of
// the total mass (e.g. migrated users) they hold. steps controls the
// curve resolution (e.g. 100 gives 1% increments). Passing the same
// counts as rank and mass gives the plain top-share (Lorenz-style)
// concentration curve.
func TopShareBy(rank, mass []int, steps int) []Point {
	if len(rank) != len(mass) {
		panic("stats: TopShareBy length mismatch")
	}
	if len(rank) == 0 || steps <= 0 {
		return nil
	}
	idx := make([]int, len(rank))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return rank[idx[a]] > rank[idx[b]] })
	total := 0
	for _, m := range mass {
		total += m
	}
	if total == 0 {
		return nil
	}
	prefix := make([]int, len(idx)+1)
	for i, j := range idx {
		prefix[i+1] = prefix[i] + mass[j]
	}
	pts := make([]Point, 0, steps)
	for s := 1; s <= steps; s++ {
		frac := float64(s) / float64(steps)
		k := int(math.Ceil(frac * float64(len(idx))))
		if k < 1 {
			k = 1
		}
		if k > len(idx) {
			k = len(idx)
		}
		pts = append(pts, Point{X: frac, Y: float64(prefix[k]) / float64(total)})
	}
	return pts
}

// Gini computes the Gini coefficient of the counts (0 = perfectly even,
// ->1 = fully concentrated).
func Gini(counts []int) float64 {
	n := len(counts)
	if n == 0 {
		return 0
	}
	sorted := make([]int, n)
	copy(sorted, counts)
	sort.Ints(sorted)
	var total, weighted float64
	for i, c := range sorted {
		total += float64(c)
		weighted += float64(i+1) * float64(c)
	}
	if total == 0 {
		return 0
	}
	return (2*weighted)/(float64(n)*total) - float64(n+1)/float64(n)
}

// FreqCount is one row of a frequency table.
type FreqCount struct {
	Key   string
	Count int
}

// TopK returns the k most frequent keys in counts, ties broken
// alphabetically for determinism.
func TopK(counts map[string]int, k int) []FreqCount {
	rows := make([]FreqCount, 0, len(counts))
	for key, c := range counts {
		rows = append(rows, FreqCount{Key: key, Count: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Key < rows[j].Key
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// QuantileBuckets assigns each value to one of nBuckets quantile buckets
// (0 = smallest values). Values are bucketed by their rank; ties share a
// bucket boundary deterministically. It returns the bucket index per
// input position.
func QuantileBuckets(values []float64, nBuckets int) []int {
	if nBuckets <= 0 {
		panic("stats: QuantileBuckets with non-positive bucket count")
	}
	n := len(values)
	out := make([]int, n)
	if n == 0 {
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	for rank, i := range idx {
		b := rank * nBuckets / n
		if b >= nBuckets {
			b = nBuckets - 1
		}
		out[i] = b
	}
	return out
}

// Chord is a square flow matrix between labelled nodes, as used for the
// instance-switching plot (Fig. 9).
type Chord struct {
	Labels []string
	index  map[string]int
	Flows  [][]int
}

// NewChord creates an empty chord matrix; labels are added lazily by Add.
func NewChord() *Chord {
	return &Chord{index: make(map[string]int)}
}

func (c *Chord) idx(label string) int {
	if i, ok := c.index[label]; ok {
		return i
	}
	i := len(c.Labels)
	c.index[label] = i
	c.Labels = append(c.Labels, label)
	for j := range c.Flows {
		c.Flows[j] = append(c.Flows[j], 0)
	}
	c.Flows = append(c.Flows, make([]int, i+1))
	return i
}

// Add records n units of flow from -> to.
func (c *Chord) Add(from, to string, n int) {
	i, j := c.idx(from), c.idx(to)
	c.Flows[i][j] += n
}

// Flow returns the flow from -> to (0 if either label is unknown).
func (c *Chord) Flow(from, to string) int {
	i, ok1 := c.index[from]
	j, ok2 := c.index[to]
	if !ok1 || !ok2 {
		return 0
	}
	return c.Flows[i][j]
}

// Total returns the sum of all flows.
func (c *Chord) Total() int {
	t := 0
	for _, row := range c.Flows {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// TopFlows returns the k largest (from, to, count) edges, deterministic
// order (count desc, then labels).
func (c *Chord) TopFlows(k int) []ChordFlow {
	var out []ChordFlow
	for i, row := range c.Flows {
		for j, v := range row {
			if v > 0 {
				out = append(out, ChordFlow{From: c.Labels[i], To: c.Labels[j], Count: v})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		if out[a].From != out[b].From {
			return out[a].From < out[b].From
		}
		return out[a].To < out[b].To
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// ChordFlow is one directed edge of a chord matrix.
type ChordFlow struct {
	From, To string
	Count    int
}

// Percent formats a fraction as the paper prints them ("96.00%").
func Percent(frac float64) string {
	return fmt.Sprintf("%.2f%%", frac*100)
}
