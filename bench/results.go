package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"text/tabwriter"
	"time"

	"flock/internal/randx"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json and checks that it names exactly the
// workloads and metrics this program measures, in the same order.
func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var sp spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	names := func(ms []metricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	var wls []string
	for _, w := range sp.Workloads {
		wls = append(wls, w.Name)
	}
	for _, c := range []struct {
		what      string
		spec, run []string
	}{
		{"workloads", wls, workloadNames()},
		{"end_to_end metrics", names(sp.EndToEnd), e2eNames},
		{"per_layer metrics", names(sp.PerLayer), layerNames()},
	} {
		if !slices.Equal(c.spec, c.run) {
			return nil, fmt.Errorf("%s: %s %v, but the benchmark measures %v", path, c.what, c.spec, c.run)
		}
	}
	return &sp, nil
}

// summary is one metric over a workload's reps, one value per world.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, vals []float64) summary {
	q1, q2, q3 := quartiles(vals)
	return summary{Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(vals), Values: vals}
}

// quartiles computes Python's statistics.quantiles(vals, n=4) with its
// default exclusive method, so spreads read the same here as in tools
// that check them. One value is its own quartiles.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := slices.Clone(vals)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Date       string           `json:"date"`
	Commit     string           `json:"commit"`
	Go         string           `json:"go"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       uint64           `json:"seed"`
	Reps       int              `json:"reps"`
	Seconds    int              `json:"seconds"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Migrants  int    `json:"migrants"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Digest is the output digest of the first world.
	Digest string `json:"digest,omitempty"`
	// Worlds are the world seeds of the reps, in order; every metric's
	// Values line up with them.
	Worlds  []uint64           `json:"worlds"`
	Metrics map[string]summary `json:"metrics"`
}

func newResultFile(o options) *resultFile {
	return &resultFile{
		Date: time.Now().UTC().Format(time.RFC3339), Commit: commit(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Reps: o.reps, Seconds: o.seconds, Trace: o.trace,
	}
}

func writeJSONFile(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// resultLine is the last line a workload prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printTable(w io.Writer, rows []metricSpec, wr workloadResult) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "metric\tunit\tmedian\tq1\tq3\tn\t\n")
	for _, m := range rows {
		s := wr.Metrics[m.Name]
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t\n", m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
	tw.Flush()
	fmt.Fprintf(w, "correct=%v worlds=%v digest=%s\n", wr.Correct, wr.Worlds, wr.Digest)
}

// verdict classifies NEW against OLD for one metric. delta is the
// relative change of the median, positive when worse, and spread the
// larger of the two sides' median spreads. The metric is unresolved when
// spread exceeds the bound, unless every NEW value beats every OLD value;
// otherwise it is a regression when delta exceeds the bound.
func verdict(m metricSpec, old, cur summary) (delta, spread float64, v string) {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	delta = sign * relative(cur.Median-old.Median, old.Median)
	spread = max(medianSpread(old.Values), medianSpread(cur.Values))
	beats := len(old.Values) > 0 && len(cur.Values) > 0
	for _, c := range cur.Values {
		for _, o := range old.Values {
			if sign*(c-o) >= 0 {
				beats = false
			}
		}
	}
	switch {
	case spread > m.Bound && !beats:
		return delta, spread, "unresolved"
	case delta > m.Bound:
		return delta, spread, "regression"
	}
	return delta, spread, "unchanged"
}

// medianSpread is how far a rerun over as many worlds would move the
// median of vals: the distance between the quartiles of the median over
// bootstrap resamples of vals, as a share of the median. A result file
// holds one run per side, so this stands in for the run-to-run spread.
// The spread of the values themselves would not do: it does not shrink
// as a run measures more worlds, and single reps of setup_s on a small
// world vary by about as much as its bound. The resamples are seeded, so
// a verdict is reproducible.
func medianSpread(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	rng := randx.New(1)
	meds := make([]float64, 2000)
	sample := make([]float64, len(vals))
	for i := range meds {
		for j := range sample {
			sample[j] = vals[rng.Intn(len(vals))]
		}
		_, meds[i], _ = quartiles(sample)
	}
	q1, med, q3 := quartiles(meds)
	return relative(q3-q1, med)
}

// relative is d/base, treating 0/0 as no change.
func relative(d, base float64) float64 {
	if d == 0 {
		return 0
	}
	return d / base
}

// compareFiles prints one row per workload and end-to-end metric and
// exits non-zero when any metric regressed or is unresolved.
func compareFiles(sp *spec, oldPath, newPath string, stdout, stderr io.Writer) int {
	old, err := readResultFile(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cur, err := readResultFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "OLD commit %s, %s, nproc %d, seed %d\nNEW commit %s, %s, nproc %d, seed %d\n",
		old.Commit, old.Go, old.NProc, old.Seed, cur.Commit, cur.Go, cur.NProc, cur.Seed)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tOLD median [q1, q3]\tNEW median [q1, q3]\tchange\tspread\tbound\tverdict\n")
	bad := 0
	for _, nw := range cur.Workloads {
		i := slices.IndexFunc(old.Workloads, func(w workloadResult) bool { return w.Name == nw.Name })
		if i < 0 {
			fmt.Fprintf(stderr, "bench: workload %s missing from OLD\n", nw.Name)
			bad++
			continue
		}
		ow := old.Workloads[i]
		if old.Seed != cur.Seed || ow.Migrants != nw.Migrants {
			fmt.Fprintf(stderr, "bench: workload %s: OLD and NEW crawled different worlds; rerun with the same -seed and -migrants\n", nw.Name)
			bad++
			continue
		}
		for _, m := range sp.EndToEnd {
			o, c := ow.Metrics[m.Name], nw.Metrics[m.Name]
			delta, spread, v := verdict(m, o, c)
			if v != "unchanged" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%.1f%%\t%.1f%%\t%s\n",
				nw.Name, m.Name, m.Unit, o.Median, o.Q1, o.Q3, c.Median, c.Q1, c.Q3, delta*100, spread*100, m.Bound*100, v)
		}
	}
	tw.Flush()
	if bad > 0 {
		return 1
	}
	return 0
}
