package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"flock/internal/analysis"
	"flock/internal/birdsite"
	"flock/internal/core"
	"flock/internal/crawler"
	"flock/internal/fediverse"
	"flock/internal/httpkit"
	"flock/internal/indexsvc"
	"flock/internal/memnet"
	"flock/internal/randx"
	"flock/internal/report"
	"flock/internal/store"
	"flock/internal/textsim"
	"flock/internal/toxsvc"
	"flock/internal/world"
)

// workload is one named set of inputs. BENCHMARK.json and README.md say
// why each was chosen.
type workload struct {
	name     string
	migrants int
	// repSeconds is the wall time of one rep process, set-up and gates
	// included, on a 2-vCPU machine; -seconds divides by it.
	repSeconds float64
	// expect returns the digest a run's first world must produce,
	// computed outside the timing ("" for none).
	expect func(ctx context.Context, r *rep) (string, error)
	run    func(ctx context.Context, r *rep) (*outcome, error)
}

// The worlds are small enough for a rep to take 3-5 s, so that a run of
// BENCHMARK.json's length takes the median over six or seven worlds.
var workloads = []workload{
	// The report must match `figures -migrants 300 -seed 99` stdout byte
	// for byte: same pipeline, same world.
	{name: "paper_300", migrants: 300, repSeconds: 4.2, run: runPaper,
		expect: golden(300, "f8e715918c95f6709e4092a16b810b29a25e5d47699e140cff7f55fbef3ac897")},
	{name: "toxicity_200", migrants: 200, repSeconds: 3.3, run: runToxicity,
		expect: golden(200, "fd499d2f79253490e54f1378a8c60f822f9f664dc537877dd27e3ae3f2cf1949")},
	{name: "chaos_300", migrants: 300, repSeconds: 3.6, run: runChaos},
	{name: "resume_150", migrants: 150, repSeconds: 3.9, run: runResume, expect: resumeReference},
}

// golden pins the output digest of the world with seed 99 at the
// workload's own size; other worlds have no committed digest.
func golden(migrants int, digest string) func(context.Context, *rep) (string, error) {
	return func(_ context.Context, r *rep) (string, error) {
		if r.seed == 99 && r.migrants == migrants {
			return digest, nil
		}
		return "", nil
	}
}

// crawlTimeout is the hang guard on one crawl leg.
const crawlTimeout = 2 * time.Minute

// outcome is what a workload's timed section produced. verify runs after
// the timer stops: it checks the outputs and returns their digest ("" for
// outputs that depend on timing).
type outcome struct {
	ds     *crawler.Dataset
	verify func() (string, error)
}

// env is one rep's simulated internet. Every rep builds its own:
// ApplyOutages and chaos storms mutate the fabric, so a second crawl on a
// used fabric would see a different network.
type env struct {
	w    *world.World
	fab  *memnet.Fabric
	http *http.Client
	fedi *fediverse.Service
}

// newEnv generates the world and serves every platform on a new fabric.
// This is the set-up that setup_s times.
func newEnv(ctx context.Context, r *rep) (*env, error) {
	cfg := world.DefaultConfig(r.migrants)
	cfg.Seed = r.seed
	setup := r.tr.begin("setup", r.root)
	defer r.tr.end(setup)
	e := &env{fab: memnet.NewFabric()}
	e.http = e.fab.Client()
	var err error
	r.timed("world.generate", setup, func() { e.w, err = world.Generate(cfg) })
	if err != nil {
		return nil, err
	}
	var bird, index, tox http.Handler
	r.timed("birdsite.new", setup, func() { bird = birdsite.New(e.w).Handler() })
	r.timed("indexsvc.new", setup, func() { index = indexsvc.New(e.w).Handler() })
	r.timed("toxsvc.new", setup, func() { tox = toxsvc.New(0).Handler() })
	r.timed("fediverse.new", setup, func() { e.fedi = fediverse.New(e.w) })
	r.timed("memnet.serve", setup, func() {
		for host, h := range map[string]http.Handler{birdsite.Host: bird, indexsvc.Host: index, toxsvc.Host: tox} {
			if _, err = e.fab.Serve(ctx, host, h); err != nil {
				return
			}
		}
		_, err = e.fedi.RegisterAll(ctx, e.fab)
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// applyOutages takes the world's down instances offline the way
// core.Env.Crawl does: outages only affect new dials, so pooled
// connections are dropped too.
func (e *env) applyOutages() {
	e.fedi.ApplyOutages(e.fab)
	e.http.CloseIdleConnections()
}

// close releases the client's pooled connections, which ends the server
// side of every pipe, then closes the fabric's listeners.
func (e *env) close() {
	e.http.CloseIdleConnections()
	e.fab.Close()
}

// rep is one repetition of a workload: a fresh env, the timed section and
// the per-layer numbers when traced.
type rep struct {
	seed     uint64
	migrants int
	outDir   string
	tr       *tracer // nil: untraced
	root     int     // the rep's span
	runSpan  int     // the timed section's span
	env      *env
	legs     []*leg
	cleanup  []func()

	// Per-layer accumulators, filled only when traced.
	layer          map[string]float64
	latency        map[string][]time.Duration
	failedAttempts int
	crawlAlloc     uint64
}

// leg is one crawler.Run; resume_150 has two.
type leg struct {
	c    *crawler.Crawler
	span int
	doer *timedDoer       // traced only
	ckpt *timedCheckpoint // traced checkpointed legs only
}

func newRep(o options, migrants int, seed uint64, tr *tracer) *rep {
	r := &rep{seed: seed, migrants: migrants, outDir: o.outDir, tr: tr}
	if tr != nil {
		r.layer = map[string]float64{}
		for _, name := range layerNames() {
			r.layer[name] = 0
		}
		r.latency = map[string][]time.Duration{}
	}
	return r
}

// close tears the env down and removes the rep's scratch directories.
func (r *rep) close() {
	if r.env != nil {
		r.env.close()
	}
	for _, fn := range r.cleanup {
		fn()
	}
}

// timed runs fn under a span named name and, when traced, adds its
// duration to the layer metric name_s.
func (r *rep) timed(name string, parent int, fn func()) {
	id := r.tr.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.tr.end(id)
	if r.layer != nil {
		r.layer[name+"_s"] += d.Seconds()
	}
}

// tempDir makes a scratch directory under the output directory that the
// rep removes when it ends.
func (r *rep) tempDir(prefix string) (string, error) {
	dir, err := os.MkdirTemp(r.outDir, prefix)
	if err != nil {
		return "", err
	}
	r.cleanup = append(r.cleanup, func() { os.RemoveAll(dir) })
	return dir, nil
}

// crawlConfig is the crawl every workload starts from: the simulated
// services on the fabric, at most nproc requests in flight.
func (r *rep) crawlConfig() crawler.Config {
	return crawler.Config{
		TwitterBase:     "https://" + birdsite.Host,
		IndexBase:       "https://" + indexsvc.Host,
		PerspectiveBase: "https://" + toxsvc.Host,
		Transport:       crawler.Transport{HTTP: r.env.http, Concurrency: runtime.NumCPU()},
	}
}

// crawl runs one crawl leg. When traced, the fabric client and a file
// checkpoint are wrapped in their timed counterparts.
func (r *rep) crawl(ctx context.Context, cfg crawler.Config) (*crawler.Dataset, error) {
	l := &leg{span: r.tr.begin("crawl", r.runSpan)}
	var before runtime.MemStats
	if r.tr != nil {
		l.doer = &timedDoer{next: cfg.HTTP, tr: r.tr}
		cfg.HTTP = l.doer
		if fc, ok := cfg.Checkpoint.(*store.FileCheckpoint); ok {
			l.ckpt = &timedCheckpoint{fc: fc, tr: r.tr, parent: l.span}
			cfg.Checkpoint = l.ckpt
		}
		runtime.ReadMemStats(&before)
	}
	ctx, cancel := context.WithTimeout(ctx, crawlTimeout)
	defer cancel()
	l.c = crawler.New(cfg)
	ds, err := l.c.Run(ctx)
	r.tr.end(l.span)
	r.legs = append(r.legs, l)
	if r.tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.crawlAlloc += after.TotalAlloc - before.TotalAlloc
		r.finishLeg(l)
	}
	return ds, err
}

// pass is one analysis over a crawled dataset, storing into the result.
type pass func(analysis.Engine, *crawler.Dataset, *core.Result)

// passes are core.Analyze's twelve passes in its order, called one by one
// so each can be timed from outside.
var passes = []struct {
	name string
	run  pass
}{
	{"rq1", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) { res.RQ1 = e.RQ1(ds) }},
	{"networks", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) {
		res.Networks = e.SocialNetworkSizes(ds)
	}},
	{"contagion", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) { res.Contagion = e.RQ2Contagion(ds) }},
	{"switching", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) { res.Switching = e.RQ2Switching(ds) }},
	{"daily", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) { res.Daily = e.Timelines(ds) }},
	{"sources", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) { res.Sources = e.RQ3Sources(ds) }},
	{"overlap", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) {
		res.Overlap = e.RQ3Overlap(ds, analysis.OverlapOptions{})
	}},
	{"hashtags", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) { res.Hashtags = e.RQ3Hashtags(ds) }},
	{"toxicity", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) {
		// paper_300 crawls without scoring, so score locally as
		// core.Analyze does when ScoreToxicity is off.
		res.Toxicity = e.RQ3Toxicity(ds, analysis.ToxicityOptions{ScoreFn: toxsvc.Score})
	}},
	{"collection", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) {
		res.Collection = e.CollectionFigure(ds)
	}},
	{"activity", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) { res.Activity = e.ActivityFigure(ds) }},
	{"retention", func(e analysis.Engine, ds *crawler.Dataset, res *core.Result) { res.Retention = e.RQ4Retention(ds) }},
}

// allocPasses are the passes whose allocations the traced run records:
// the three that allocate the most.
var allocPasses = []string{"overlap", "hashtags", "toxicity"}

// analyze runs every pass on one engine with one embedding cache, as
// core.Analyze does.
func (r *rep) analyze(ds *crawler.Dataset) *core.Result {
	parent := r.tr.begin("analysis", r.runSpan)
	defer r.tr.end(parent)
	eng := analysis.Engine{Cache: textsim.NewCache()}
	res := &core.Result{Dataset: ds, Coverage: ds.Coverage()}
	for _, p := range passes {
		name := "analysis." + p.name
		_, tracked := r.layer[name+"_alloc_mb"]
		var before, after runtime.MemStats
		if tracked {
			runtime.ReadMemStats(&before)
		}
		r.timed(name, parent, func() { p.run(eng, ds, res) })
		if tracked {
			runtime.ReadMemStats(&after)
			r.layer[name+"_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		}
	}
	return res
}

// runPaper is the figures path: crawl with the §3.2 outages, every
// analysis pass, the report, and a dataset store round trip.
func runPaper(ctx context.Context, r *rep) (*outcome, error) {
	cfg := r.crawlConfig()
	cfg.BeforeTimelines = r.env.applyOutages
	ds, err := r.crawl(ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := r.analyze(ds)
	var text string
	r.timed("report.all", r.runSpan, func() { text = report.All(res) })
	dir, err := r.tempDir("dataset-")
	if err != nil {
		return nil, err
	}
	r.timed("store.dataset_save", r.runSpan, func() { err = store.Save(dir, ds, false) })
	if err != nil {
		return nil, err
	}
	var loaded *crawler.Dataset
	r.timed("store.dataset_load", r.runSpan, func() { loaded, _, err = store.Load(dir) })
	if err != nil {
		return nil, err
	}
	return &outcome{ds: ds, verify: func() (string, error) {
		if r.layer != nil {
			r.layer["store.dataset_mb"] = dirMB(dir)
		}
		want, err := digestJSON(ds)
		if err != nil {
			return "", err
		}
		if got, err := digestJSON(loaded); err != nil || got != want {
			return "", fmt.Errorf("dataset store round trip changed the dataset (%v)", err)
		}
		return digestText(text), nil
	}}, nil
}

// runToxicity is core's default crawl: outages applied and every post
// scored over HTTP (§6.3).
func runToxicity(ctx context.Context, r *rep) (*outcome, error) {
	cfg := r.crawlConfig()
	cfg.ScoreToxicity = true
	cfg.BeforeTimelines = r.env.applyOutages
	ds, err := r.crawl(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &outcome{ds: ds, verify: func() (string, error) { return digestJSON(ds) }}, nil
}

// runChaos crawls through a seeded fault storm. Hedging and adaptive
// windows are on; breakers use their defaults.
func runChaos(ctx context.Context, r *rep) (*outcome, error) {
	storm := chaosStorm(r.env.w, r.seed)
	storm.Apply(r.env.fab)

	cfg := r.crawlConfig()
	cfg.Hedge = httpkit.HedgePolicy{Percentile: 0.90, BudgetFrac: 0.05}
	cfg.Adaptive = crawler.AdaptivePolicy{Enabled: true}
	ds, err := r.crawl(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &outcome{ds: ds, verify: func() (string, error) {
		return "", chaosInvariants(ds, r.legs[0].c, storm, chaosEvents(r.env.fab))
	}}, nil
}

// chaosStorm builds TestChaosSoak's storm, with the flagship's jitter
// replaced by tail stalls. Populated instances die smallest first until
// 5% of migrants sit on dead hosts; the rest are dealt round-robin, in
// size order, into flapping, lossy, throttled and jittered cohorts. The
// seed picks each host's fault stream, not the cohorts: a uniform draw
// (memnet.RandomStorm) can kill or throttle a large instance, which
// moves Mastodon coverage from 0.83 to 0.998 and the crawl from 3 s to
// 17 s from one seed to the next. The throttle is 1 MiB/s rather than
// the soak's 128 KiB/s for the same reason: at 128 KiB/s the bytes of
// whichever instances land in that cohort set the crawl time.
func chaosStorm(w *world.World, seed uint64) *memnet.Storm {
	rng := randx.New(seed).Split("storm")
	type load struct {
		domain string
		n      int
	}
	loads := make([]load, 0, len(w.Instances))
	total := 0
	for i, inst := range w.Instances {
		loads = append(loads, load{inst.Domain, w.MigrantsPerInstance[i]})
		total += w.MigrantsPerInstance[i]
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].n != loads[j].n {
			return loads[i].n < loads[j].n
		}
		return loads[i].domain < loads[j].domain
	})
	storm := &memnet.Storm{Specs: map[string]*memnet.ChaosSpec{}}
	dead := map[string]bool{}
	killed := 0
	for _, l := range loads {
		if l.n == 0 || l.domain == "mastodon.social" {
			continue
		}
		if killed+l.n > total*5/100 {
			break
		}
		storm.Dead = append(storm.Dead, l.domain)
		dead[l.domain] = true
		killed += l.n
	}
	i := 0
	for _, l := range loads {
		spec := &memnet.ChaosSpec{Seed: rng.Uint64()}
		switch {
		case dead[l.domain]:
			continue
		case l.domain == "mastodon.social":
			spec.PSlowReq, spec.SlowReqDelay = 0.05, 100*time.Millisecond
		case i%4 == 0:
			spec.FlapUpDials, spec.FlapDownDials = 12, 2
		case i%4 == 1:
			spec.PDialFail = 0.15
		case i%4 == 2:
			spec.BytesPerSec, spec.Latency = 1<<20, time.Millisecond
		default:
			spec.Latency, spec.Jitter = time.Millisecond, 3*time.Millisecond
		}
		if l.domain != "mastodon.social" {
			i++
		}
		storm.Specs[l.domain] = spec
	}
	return storm
}

// chaosInvariants are TestChaosSoak's: Mastodon coverage at or above the
// paper's 88.42%, chaos actually injected, and a breaker opened on every
// dead host that held at least two pairs.
func chaosInvariants(ds *crawler.Dataset, c *crawler.Crawler, storm *memnet.Storm, events int) error {
	cov := ds.Coverage()
	if cov.Pairs == 0 {
		return errors.New("chaos crawl mapped no pairs")
	}
	if reachable := float64(cov.Pairs-cov.MastodonDown) / float64(cov.Pairs); reachable < 0.8842 {
		return fmt.Errorf("mastodon coverage %.4f < 0.8842 (%d of %d down)", reachable, cov.MastodonDown, cov.Pairs)
	}
	if events == 0 {
		return errors.New("no chaos events recorded")
	}
	pairsOn := map[string]int{}
	for i := range ds.Pairs {
		pairsOn[ds.Pairs[i].Handle.Domain]++
	}
	for _, host := range storm.Dead {
		if pairsOn[host] < 2 {
			continue
		}
		if h := c.Health().Health(host); h.Opens == 0 || h.Counts[httpkit.KindDial] == 0 {
			return fmt.Errorf("dead host %s (%d pairs) never opened its breaker: %+v", host, pairsOn[host], h)
		}
	}
	return nil
}

// chaosEvents sums what the fabric's chaos engine injected over all hosts.
func chaosEvents(fab *memnet.Fabric) int {
	n := 0
	for _, host := range fab.Hosts() {
		st := fab.ChaosStats(host)
		n += st.FailedDials + st.FlapRejected + st.Resets + st.SlowRequests
	}
	return n
}

// runResume crawls with a file checkpoint, kills the crawl from its
// BeforeTimelines hook and resumes it to completion in a second leg.
func runResume(ctx context.Context, r *rep) (*outcome, error) {
	dir, err := r.tempDir("ckpt-")
	if err != nil {
		return nil, err
	}
	cfg := r.crawlConfig()
	cfg.Checkpoint = store.NewFileCheckpoint(filepath.Join(dir, "crawl.ckpt.gz"))
	legCtx, kill := context.WithCancel(ctx)
	defer kill()
	cfg.BeforeTimelines = kill
	if _, err := r.crawl(legCtx, cfg); !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("leg 1: err = %v, want context.Canceled", err)
	}
	cfg.BeforeTimelines = r.env.applyOutages
	ds, err := r.crawl(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("leg 2: %w", err)
	}
	resumed := r.legs[1].c.Report().Resumed
	return &outcome{ds: ds, verify: func() (string, error) {
		if !resumed {
			return "", errors.New("leg 2 did not resume from the checkpoint")
		}
		return digestJSON(ds)
	}}, nil
}

// resumeReference is the digest of an uninterrupted crawl of the same
// world, which the resumed crawl must reproduce.
func resumeReference(ctx context.Context, r *rep) (string, error) {
	e, err := newEnv(ctx, r)
	if err != nil {
		return "", err
	}
	r.env = e
	cfg := r.crawlConfig()
	cfg.BeforeTimelines = e.applyOutages
	ds, err := r.crawl(ctx, cfg)
	if err != nil {
		return "", err
	}
	return digestJSON(ds)
}

// workUnits counts the crawl's units of work: search queries, distinct
// authors, both timelines of every pair, sampled followee users and
// activity domains.
func workUnits(ds *crawler.Dataset, reports []*crawler.CrawlReport) int {
	n := len(ds.Instances) + len(crawler.DefaultKeywords) + 2*len(ds.Pairs)
	authors := map[string]bool{}
	for _, t := range ds.CollectedTweets {
		authors[t.AuthorID] = true
	}
	sampled := map[string]bool{}
	for id := range ds.TwitterFollowees {
		sampled[id] = true
	}
	for _, rep := range reports {
		for id := range rep.FolloweeGaps {
			sampled[id] = true
		}
	}
	domains := map[string]bool{}
	for _, p := range ds.Pairs {
		domains[p.Handle.Domain] = true
		if p.Moved != nil {
			domains[p.Moved.Handle.Domain] = true
		}
	}
	return n + len(authors) + len(sampled) + len(domains)
}

func digestText(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func digestJSON(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestText(string(raw)), nil
}

// dirMB is the total size of the regular files in dir, in MB.
func dirMB(dir string) float64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return float64(n) / (1 << 20)
}
