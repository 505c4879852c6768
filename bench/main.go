// Command bench is flock's layered pipeline benchmark. It runs four
// workloads through the whole reproduction — world generation, the
// simulated platforms on the memnet fabric, the §3 crawl, the analysis
// passes, the report and the dataset store — prints every end-to-end
// metric BENCHMARK.json names, with its unit, and exits non-zero unless
// every correctness gate passes.
//
//	bash bench/run.sh                                 # every workload, 3 reps each
//	bash bench/run.sh -workload chaos_300 -seed 7     # one workload
//	bash bench/run.sh -trace                          # per-layer metrics, JSONL traces
//	bash bench/run.sh -json bench/results/BENCH_<date>_a.json
//	bash bench/run.sh -compare OLD.json NEW.json
//
// bench/README.md describes the workloads, the metrics and the load model.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flock/internal/crawler"
	"flock/internal/randx"
)

type options struct {
	workload string
	seed     uint64
	world    string
	reps     int
	seconds  int
	trace    bool
	migrants int
	outDir   string
	jsonPath string
	specPath string
	compare  bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: every workload)")
	fs.Uint64Var(&o.seed, "seed", 99, "seed the reps' worlds and fault storms are drawn from")
	fs.StringVar(&o.world, "world", "", "run a single rep of -workload on this world seed and print its raw numbers")
	fs.IntVar(&o.reps, "reps", 3, "minimum repetitions per workload, each on its own world")
	fs.IntVar(&o.seconds, "seconds", 0, "measure each workload for about this long: more worlds than -reps when one takes less")
	fs.BoolVar(&o.trace, "trace", false, "traced run: report per-layer metrics and write trace_<workload>.jsonl")
	fs.IntVar(&o.migrants, "migrants", 0, "world size for every workload (0: each workload's own)")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for traces and scratch files")
	fs.StringVar(&o.jsonPath, "json", "", "write every rep's values and their quartiles to this file")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "benchmark specification")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare OLD.json NEW.json")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	sp, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes OLD.json NEW.json")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	selected := workloads
	if o.workload != "" {
		i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == o.workload })
		if i < 0 {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = workloads[i : i+1]
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.world != "" {
		if o.workload == "" {
			fmt.Fprintln(stderr, "bench: -world needs -workload")
			return 2
		}
		return runWorld(o, selected[0], stdout, stderr)
	}
	rf := newResultFile(o)
	status := 0
	for _, wl := range selected {
		wr := measure(o, sp, wl, stdout, stderr)
		rf.Workloads = append(rf.Workloads, wr)
		if !wr.Correct {
			status = 1
		}
	}
	if o.jsonPath != "" {
		if err := writeJSONFile(o.jsonPath, rf); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// joinTraceValue rewrites "-trace 0|1" into "-trace=0|1": the flag
// package reads a bare boolean flag as true and would leave the value
// behind as a positional argument.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if a := args[i]; (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

// worldSeed is the world rep n crawls: the run's seed itself first, then
// seeds drawn from it. Worlds of one size still differ by several
// percent in the work they hold, so a run measures several and reports
// the median; the same seed always gives the same worlds.
func worldSeed(seed uint64, n int) uint64 {
	if n == 0 {
		return seed
	}
	return randx.New(seed).SplitN("world", n).Uint64()
}

// repsFor is how many worlds a run of wl measures: -reps, or as many as
// fill -seconds at wl's nominal cost per rep. A traced run crawls each
// world twice, so it fills the same time with half as many. The count
// depends only on the flags, so one seed always measures the same worlds.
func (o options) repsFor(wl workload) int {
	perWorld := wl.repSeconds
	if o.trace {
		perWorld *= 2
	}
	return max(o.reps, int(math.Round(float64(o.seconds)/perWorld)))
}

func (o options) size(wl workload) int {
	if o.migrants > 0 {
		return o.migrants
	}
	return wl.migrants
}

func (o options) tracePath(wl workload) string {
	return filepath.Join(o.outDir, "trace_"+wl.name+".jsonl")
}

// repResult is one rep's numbers, as a rep process prints them.
type repResult struct {
	E2E    map[string]float64 `json:"e2e"`
	Layer  map[string]float64 `json:"layer,omitempty"` // traced reps only
	Digest string             `json:"digest"`
}

// measure runs one workload's reps, each in a fresh process so one
// rep's heap and GC state cannot move the next rep's numbers, checks
// the gates, and prints the result; the last line is the
// machine-readable summary.
func measure(o options, sp *spec, wl workload, stdout, stderr io.Writer) workloadResult {
	fmt.Fprintf(stdout, "workload %s: migrants=%d seed=%d nproc=%d GOMAXPROCS=%d %s commit=%s trace=%v\n",
		wl.name, o.size(wl), o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), o.trace)
	wr := workloadResult{Name: wl.name, Migrants: o.size(wl), Correct: true}
	var plain, traced []*repResult
	err := func() error {
		if o.trace {
			if err := os.Remove(o.tracePath(wl)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		for n := range max(1, o.repsFor(wl)) {
			ws := worldSeed(o.seed, n)
			wr.Attempted++
			res, err := runChild(o, wl, ws, false, stderr)
			if err != nil {
				return fmt.Errorf("world %d: %w", ws, err)
			}
			plain = append(plain, res)
			wr.Worlds = append(wr.Worlds, ws)
			// The reference costs as much as a crawl, so a run checks
			// it on its first world only.
			if n == 0 {
				if err := checkReference(o, wl, ws, res.Digest); err != nil {
					return fmt.Errorf("world %d: %w", ws, err)
				}
			}
			if !o.trace {
				continue
			}
			// The traced rep crawls the same world again: it must
			// reproduce the untraced output exactly.
			wr.Attempted++
			tres, err := runChild(o, wl, ws, true, stderr)
			if err != nil {
				return fmt.Errorf("world %d traced: %w", ws, err)
			}
			if tres.Digest != res.Digest {
				return fmt.Errorf("world %d: traced digest %s, untraced %s", ws, tres.Digest, res.Digest)
			}
			tres.Layer["trace.overhead_frac"] = tres.E2E["run_s"]/res.E2E["run_s"] - 1
			traced = append(traced, tres)
		}
		return nil
	}()
	if err != nil {
		wr.Failed, wr.Correct = 1, false
		fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
	}
	if len(plain) > 0 {
		wr.Digest = plain[0].Digest
	}

	wr.Metrics = map[string]summary{}
	for _, m := range sp.EndToEnd {
		wr.Metrics[m.Name] = summarize(m.Unit, column(plain, func(r *repResult) map[string]float64 { return r.E2E }, m.Name))
	}
	final, rows := sp.EndToEnd, sp.EndToEnd
	if o.trace {
		final, rows = sp.PerLayer, append(slices.Clone(rows), sp.PerLayer...)
		for _, m := range sp.PerLayer {
			wr.Metrics[m.Name] = summarize(m.Unit, column(traced, func(r *repResult) map[string]float64 { return r.Layer }, m.Name))
		}
	}
	printTable(stdout, rows, wr)
	line := resultLine{Correct: wr.Correct, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]valueUnit{}}
	for _, m := range final {
		line.Metrics[m.Name] = valueUnit{Value: wr.Metrics[m.Name].Median, Unit: m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		// Only a NaN or an infinity can fail here; report it as incorrect.
		fmt.Fprintln(stderr, "bench:", err)
		wr.Correct = false
		return wr
	}
	fmt.Fprintln(stdout, string(raw))
	return wr
}

func column(rs []*repResult, get func(*repResult) map[string]float64, name string) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		out = append(out, get(r)[name])
	}
	return out
}

// runChild runs one rep in a new process of this program and reads the
// numbers it prints. The child's stderr, which names any failed gate,
// passes through.
func runChild(o options, wl workload, world uint64, traced bool, stderr io.Writer) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "-workload", wl.name, "-world", strconv.FormatUint(world, 10),
		"-migrants", strconv.Itoa(o.size(wl)), "-trace="+strconv.FormatBool(traced),
		"-out", o.outDir, "-spec", o.specPath)
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("rep process: %w", err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("rep process output: %w", err)
	}
	return &res, nil
}

// checkReference compares the digest of a world's output with the one
// wl.expect gives for that world, if it gives one. It runs in the main
// process, so a reference crawl cannot raise a rep's peak RSS.
func checkReference(o options, wl workload, world uint64, digest string) error {
	if wl.expect == nil {
		return nil
	}
	r := newRep(o, o.size(wl), world, nil)
	defer r.close()
	want, err := wl.expect(context.Background(), r)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if want != "" && digest != want {
		return fmt.Errorf("digest %s, want %s", digest, want)
	}
	return nil
}

// runWorld is the rep process: one rep of wl on the world o.world, its
// gates, and its numbers as one JSON object on stdout. A traced rep
// appends its spans to the workload's trace file.
func runWorld(o options, wl workload, stdout, stderr io.Writer) int {
	world, err := strconv.ParseUint(o.world, 10, 64)
	if err != nil {
		fmt.Fprintln(stderr, "bench: -world:", err)
		return 2
	}
	ctx := context.Background()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res, err := runRep(ctx, o, wl, world, tr)
	if err == nil && tr != nil {
		err = tr.write(o.tracePath(wl), world)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s world %d: %v\n", wl.name, world, err)
		return 1
	}
	fmt.Fprintf(stderr, "%s world %d trace=%v: setup %.3fs run %.3fs\n", wl.name, world, o.trace, res.E2E["setup_s"], res.E2E["run_s"])
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runRep builds a fresh env for one world, runs the workload's timed
// section on it and checks the outputs. tr is nil for an untraced rep.
func runRep(ctx context.Context, o options, wl workload, seed uint64, tr *tracer) (*repResult, error) {
	r := newRep(o, o.size(wl), seed, tr)
	defer r.close()
	r.root = tr.begin("rep", 0)
	defer tr.end(r.root)

	c0 := readUsage().cpu
	pr := startProbe()
	start := time.Now()
	e, err := newEnv(ctx, r)
	setup := time.Since(start)
	setupScale, setupProbeCPU := pr.end()
	setupCPU := readUsage().cpu - c0 - setupProbeCPU
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.env = e

	// Collect the set-up's garbage before the clock starts.
	runtime.GC()
	u0 := readUsage()
	r.runSpan = tr.begin("run", r.root)
	pr = startProbe()
	start = time.Now()
	out, err := wl.run(ctx, r)
	wall := time.Since(start)
	runScale, probeCPU := pr.end()
	tr.end(r.runSpan)
	u1 := readUsage()
	if err != nil {
		return nil, err
	}
	cpu := u1.cpu - u0.cpu - probeCPU
	digest, err := out.verify()
	if err != nil {
		return nil, err
	}

	var reports []*crawler.CrawlReport
	requests, gaps := 0, 0
	for _, l := range r.legs {
		rep := l.c.Report()
		reports = append(reports, rep)
		requests += rep.HTTPStats.Requests
		gaps += rep.GapCount()
	}
	res := &repResult{Digest: digest, E2E: map[string]float64{
		"setup_s":     atRef(setup, setupCPU, setupScale),
		"run_s":       atRef(wall, cpu, runScale),
		"cpu_s":       cpu.Seconds() * runScale,
		"alloc_mb":    float64(u1.alloc-u0.alloc) / (1 << 20),
		"peak_rss_mb": u1.peakRSSMB,
		"requests":    float64(requests),
		"coverage":    1 - float64(gaps)/float64(workUnits(out.ds, reports)),
	}}
	if tr != nil {
		res.Layer = r.layerMetrics(reports, gaps, u0, u1)
		res.Layer["probe.scale"] = runScale
	}
	return res, nil
}

// layerMetrics completes a traced rep's per-layer numbers from the crawl
// reports, the fabric and the runtime.
func (r *rep) layerMetrics(reports []*crawler.CrawlReport, gaps int, u0, u1 usage) map[string]float64 {
	l := r.layer
	var crawlWall time.Duration
	for _, lg := range r.legs {
		s := r.tr.get(lg.span)
		crawlWall += s.End - s.Start
	}
	wins := 0.0
	for _, rep := range reports {
		st := rep.HTTPStats
		l["httpkit.retries"] += float64(st.Retries)
		l["httpkit.short_circuits"] += float64(st.ShortCircuits)
		l["httpkit.hedges_fired"] += float64(st.HedgesFired)
		wins += float64(st.HedgeWins)
	}
	l["httpkit.hedge_win_frac"] = ratio(wins, l["httpkit.hedges_fired"])
	l["httpkit.fail_frac"] = ratio(float64(r.failedAttempts), l["httpkit.attempts"])
	l["httpkit.alloc_kb_per_attempt"] = ratio(float64(r.crawlAlloc)/1024, l["httpkit.attempts"])
	for _, svc := range latencyServices {
		l[svc+".p50_ms"] = percentileMs(r.latency[svc], 0.50)
		l[svc+".p99_ms"] = percentileMs(r.latency[svc], 0.99)
	}
	l["memnet.chaos_events"] = float64(chaosEvents(r.env.fab))
	l["crawler.gap_units"] = float64(gaps)
	l["store.ckpt_stall_frac"] = ratio(l["store.ckpt_save_s"], crawlWall.Seconds())
	l["runtime.gc_cycles"] = float64(u1.numGC - u0.numGC)
	l["runtime.gc_pause_ms"] = float64(u1.gcPause-u0.gcPause) / float64(time.Millisecond)
	return l
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyServices are the services whose per-attempt latency the traced
// run reports.
var latencyServices = []string{"birdsite", "fediverse", "toxsvc"}

// e2eNames are the end-to-end metrics every rep measures.
var e2eNames = []string{"setup_s", "run_s", "cpu_s", "alloc_mb", "peak_rss_mb", "requests", "coverage"}

// layerNames are the per-layer metrics a traced rep reports.
func layerNames() []string {
	names := []string{"world.generate_s", "birdsite.new_s", "indexsvc.new_s", "toxsvc.new_s", "fediverse.new_s", "memnet.serve_s"}
	for _, svc := range latencyServices {
		names = append(names, svc+".p50_ms", svc+".p99_ms")
	}
	names = append(names, "httpkit.attempts", "httpkit.alloc_kb_per_attempt", "httpkit.resp_mb", "httpkit.fail_frac",
		"httpkit.retries", "httpkit.short_circuits", "httpkit.hedges_fired", "httpkit.hedge_win_frac", "memnet.chaos_events")
	for _, p := range phases {
		names = append(names, "crawler."+p+"_s")
	}
	names = append(names, "crawler.self_s", "crawler.gap_units",
		"store.ckpt_saves", "store.ckpt_save_s", "store.ckpt_save_max_ms", "store.ckpt_written_mb", "store.ckpt_load_s",
		"store.ckpt_stall_frac", "store.dataset_save_s", "store.dataset_load_s", "store.dataset_mb")
	for _, p := range passes {
		names = append(names, "analysis."+p.name+"_s")
	}
	for _, p := range allocPasses {
		names = append(names, "analysis."+p+"_alloc_mb")
	}
	return append(names, "report.all_s", "runtime.gc_cycles", "runtime.gc_pause_ms", "trace.overhead_frac", "probe.scale")
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// usage is a process-wide resource snapshot.
type usage struct {
	cpu       time.Duration // user + system
	peakRSSMB float64
	alloc     uint64 // cumulative bytes allocated
	numGC     uint32
	gcPause   uint64 // cumulative ns
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		peakRSSMB: float64(ru.Maxrss) / 1024, // KiB on Linux: the process's VmHWM
		alloc:     ms.TotalAlloc,
		numGC:     ms.NumGC,
		gcPause:   ms.PauseTotalNs,
	}
}

// commit is the VCS revision go build stamped into the binary.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev + dirty
}
