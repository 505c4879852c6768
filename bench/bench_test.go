package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

// TestWorkloadsTiny builds the benchmark and runs every workload on a
// tiny world, untraced and traced, with the flags BENCHMARK.json's
// command is run with. Each run must pass its correctness gates and end
// with exactly the metrics BENCHMARK.json names.
func TestWorkloadsTiny(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "flockbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl.name+"/trace="+trace, func(t *testing.T) {
				out := t.TempDir()
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(bin, "--workload", wl.name, "--seed", "5", "--seconds", "0", "--trace", trace,
					"-reps", "1", "-migrants", "60", "-out", out, "-spec", specPath)
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Fatalf("result %+v", line)
				}
				want := sp.EndToEnd
				if trace == "1" {
					want = sp.PerLayer
				}
				var got, names []string
				for name, m := range line.Metrics {
					got = append(got, name+" "+m.Unit)
				}
				for _, m := range want {
					names = append(names, m.Name+" "+m.Unit)
				}
				slices.Sort(got)
				slices.Sort(names)
				if !slices.Equal(got, names) {
					t.Fatalf("metrics %v, want %v", got, names)
				}
				if trace == "1" {
					if fi, err := os.Stat(filepath.Join(out, "trace_"+wl.name+".jsonl")); err != nil || fi.Size() == 0 {
						t.Fatalf("trace file: %v", err)
					}
					if wl.name == "chaos_300" && line.Metrics["memnet.chaos_events"].Value == 0 {
						t.Error("chaos workload injected no chaos")
					}
				}
			})
		}
	}
}

// TestCompareBaselines checks the committed baselines against the spec:
// two runs of the same code must compare as unchanged on every metric.
func TestCompareBaselines(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-spec", specPath, "-compare",
		"results/BENCH_20261016_a.json", "results/BENCH_20261016_b.json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestVerdict(t *testing.T) {
	m := metricSpec{Name: "run_s", Better: "lower", Bound: 0.10}
	sum := func(vals ...float64) summary { return summarize("s", vals) }
	spaced := func(lo, hi float64, n int) summary {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = lo + (hi-lo)*float64(i)/float64(n-1)
		}
		return summarize("s", vals)
	}
	for _, c := range []struct {
		name     string
		old, cur summary
		want     string
	}{
		{"same", sum(10, 10.2, 10.4), sum(10.1, 10.3, 10.4), "unchanged"},
		{"slower", sum(10, 10.2, 10.4), sum(12, 12.2, 12.4), "regression"},
		{"faster", sum(10, 10.2, 10.4), sum(8, 8.2, 8.4), "unchanged"},
		{"noisy", sum(8, 10, 12), sum(8.5, 10, 12), "unresolved"},
		{"noisy but every run faster", sum(10, 12, 14), sum(6, 7, 9), "unchanged"},
		// Single values vary by ±20%, but fifteen of them pin the median
		// to well within the bound.
		{"noisy values, many worlds", spaced(8, 12, 15), spaced(8.2, 12.2, 15), "unchanged"},
		{"noisy values, few worlds", spaced(8, 12, 3), spaced(8.2, 12.2, 3), "unresolved"},
	} {
		if _, _, got := verdict(m, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	higher := metricSpec{Name: "coverage", Better: "higher", Bound: 0.01}
	if _, _, got := verdict(higher, sum(0.97, 0.97, 0.97), sum(0.9, 0.9, 0.9)); got != "regression" {
		t.Errorf("coverage drop: %s, want regression", got)
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(n=4)
// gives for the same inputs.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

func TestAtRef(t *testing.T) {
	for _, c := range []struct {
		wall, cpu time.Duration
		scale     float64
		want      float64
	}{
		{4 * time.Second, 0, 0.5, 4},               // all waiting: the machine's speed is beside the point
		{4 * time.Second, 6 * time.Second, 0.5, 2}, // busy on more than one CPU: all computing
		{4 * time.Second, 2 * time.Second, 0.5, 3}, // half computing
	} {
		if got := atRef(c.wall, c.cpu, c.scale); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("atRef(%v, %v, %v) = %v, want %v", c.wall, c.cpu, c.scale, got, c.want)
		}
	}
}

// TestProbe checks that a probe samples every CPU even over an interval
// shorter than its tick, and reports a usable scale.
func TestProbe(t *testing.T) {
	p := startProbe()
	scale, busy := p.end()
	if !(scale > 0) || math.IsInf(scale, 0) || busy <= 0 {
		t.Fatalf("scale %v, busy %v", scale, busy)
	}
	for cpu, ts := range p.times {
		if len(ts) == 0 {
			t.Errorf("CPU %d: no samples", cpu)
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--trace", "1", "-trace", "-seed", "3", "--trace", "0"})
	want := []string{"--trace=1", "-trace", "-seed", "3", "--trace=0"}
	if !slices.Equal(got, want) {
		t.Fatalf("%v, want %v", got, want)
	}
}
