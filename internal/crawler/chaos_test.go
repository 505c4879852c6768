// Chaos soak and checkpoint/resume tests for the full §3 pipeline.
//
// This file is an external test package on purpose: it drives the
// crawler through store.FileCheckpoint, and store imports crawler, so an
// in-package test would be an import cycle.
package crawler_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"flock/internal/birdsite"
	"flock/internal/crawler"
	"flock/internal/fediverse"
	"flock/internal/httpkit"
	"flock/internal/indexsvc"
	"flock/internal/memnet"
	"flock/internal/randx"
	"flock/internal/store"
	"flock/internal/toxsvc"
	"flock/internal/world"
)

// soakEnv is the simulated internet for chaos tests, assembled the same
// way as the in-package test env.
type soakEnv struct {
	w    *world.World
	fab  *memnet.Fabric
	http *http.Client
}

func newSoakEnv(t testing.TB, nMigrants int, seed uint64) *soakEnv {
	t.Helper()
	cfg := world.DefaultConfig(nMigrants)
	cfg.Seed = seed
	return newSoakEnvFrom(t, cfg)
}

// sparseWorld is a 50-migrant world with a small population and few
// posts, so a whole crawl of it is a few hundred small records.
func sparseWorld() world.Config {
	cfg := world.DefaultConfig(50)
	cfg.PopulationFactor = 2
	cfg.TweetsPerDay, cfg.StatusesPerDay = 0.05, 0.05
	return cfg
}

func newSoakEnvFrom(t testing.TB, cfg world.Config) *soakEnv {
	t.Helper()
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab := memnet.NewFabric()
	t.Cleanup(func() { fab.Close() })
	if _, err := fab.Serve(context.Background(), birdsite.Host, birdsite.New(w).Handler()); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Serve(context.Background(), indexsvc.Host, indexsvc.New(w).Handler()); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Serve(context.Background(), toxsvc.Host, toxsvc.New(0).Handler()); err != nil {
		t.Fatal(err)
	}
	if _, err := fediverse.New(w).RegisterAll(context.Background(), fab); err != nil {
		t.Fatal(err)
	}
	return &soakEnv{w: w, fab: fab, http: fab.Client()}
}

func (e *soakEnv) config() crawler.Config {
	return crawler.Config{
		TwitterBase:     "https://" + birdsite.Host,
		IndexBase:       "https://" + indexsvc.Host,
		PerspectiveBase: "https://" + toxsvc.Host,
		Transport:       crawler.Transport{HTTP: e.http, Concurrency: 12},
	}
}

// buildStorm builds a seeded fault storm over the fediverse instance
// hosts only (the core services stay clean; the paper's §3.2 failures
// were instance deaths, not Twitter outages). Dead hosts are chosen
// smallest-first so the destroyed coverage stays within the §3.2 budget
// (11.58% of timeline crawls); every other instance except the flagship
// gets flapping, lossy dials, throttling or latency jitter.
func buildStorm(w *world.World, seed uint64) *memnet.Storm {
	rng := randx.New(seed)
	// Final-instance migrant load per domain, smallest first.
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
	// Kill populated instances until ~5% of migrants live on dead hosts:
	// well under the 11.58% §3.2 bound, leaving margin for the lossy and
	// flapping cohorts' residual failures.
	budget := total * 5 / 100
	killed := 0
	for _, l := range loads {
		if l.n == 0 || l.domain == "mastodon.social" {
			continue
		}
		if killed+l.n > budget {
			break
		}
		storm.Dead = append(storm.Dead, l.domain)
		dead[l.domain] = true
		killed += l.n
	}
	i := 0
	for _, l := range loads {
		if dead[l.domain] {
			continue
		}
		if l.domain == "mastodon.social" {
			// The flagship hosts most accounts: light jitter only.
			storm.Specs[l.domain] = &memnet.ChaosSpec{Seed: rng.Uint64(), Jitter: 2 * time.Millisecond}
			continue
		}
		switch i % 4 {
		case 0: // scripted down/up windows
			storm.Specs[l.domain] = &memnet.ChaosSpec{
				Seed: rng.Uint64(), FlapUpDials: 12, FlapDownDials: 2,
			}
		case 1: // lossy dials
			storm.Specs[l.domain] = &memnet.ChaosSpec{Seed: rng.Uint64(), PDialFail: 0.15}
		case 2: // slow-loris throttling
			storm.Specs[l.domain] = &memnet.ChaosSpec{
				Seed: rng.Uint64(), BytesPerSec: 128 << 10, Latency: time.Millisecond,
			}
		default: // latency jitter
			storm.Specs[l.domain] = &memnet.ChaosSpec{
				Seed: rng.Uint64(), Latency: time.Millisecond, Jitter: 3 * time.Millisecond,
			}
		}
		i++
	}
	return storm
}

// TestChaosSoak runs the full pipeline over memnet under a seeded fault
// storm: dead hosts, flapping hosts, lossy dials, throttled and jittered
// links. The crawl must complete (no hang), keep Mastodon timeline
// coverage at or above the paper's 88.42%, open breakers for the dead
// hosts, and account for every gap in the CrawlReport.
func TestChaosSoak(t *testing.T) {
	e := newSoakEnv(t, 220, 99)
	storm := buildStorm(e.w, 4242)
	if len(storm.Dead) == 0 {
		t.Fatal("storm has no dead hosts; world too small for the soak")
	}
	storm.Apply(e.fab)

	cfg := e.config()
	cfg.Checkpoint = store.NewFileCheckpoint(filepath.Join(t.TempDir(), "soak.ckpt.gz"))
	cfg.CheckpointEvery = 64
	// Short cooldown so lossy hosts recover within the test run; dead
	// hosts stay effectively open because every probe fails again.
	cfg.Breaker = httpkit.BreakerPolicy{FailureThreshold: 5, Cooldown: 200 * time.Millisecond, QuarantineAfter: 3}
	c := crawler.New(cfg)

	// The hang guard: a wedged pipeline fails here rather than at the
	// package test timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	ds, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("soak run failed (ctx err %v): %v", ctx.Err(), err)
	}

	cov := ds.Coverage()
	if cov.Pairs < len(e.w.Migrants)/2 {
		t.Fatalf("storm destroyed mapping: %d pairs of %d migrants", cov.Pairs, len(e.w.Migrants))
	}
	reachable := float64(cov.Pairs-cov.MastodonDown) / float64(cov.Pairs)
	if reachable < 0.8842 {
		t.Fatalf("mastodon coverage %.4f < 0.8842 (%d of %d down)", reachable, cov.MastodonDown, cov.Pairs)
	}

	// Every dead host that actually hosted mapped accounts must have
	// tripped its breaker.
	pairsOn := map[string]int{}
	for i := range ds.Pairs {
		pairsOn[ds.Pairs[i].Handle.Domain]++
	}
	health := c.Health()
	for _, host := range storm.Dead {
		if pairsOn[host] < 2 {
			continue // too few requests to guarantee a trip
		}
		h := health.Health(host)
		if h.Opens == 0 {
			t.Errorf("dead host %s (%d pairs) never opened its breaker: %+v", host, pairsOn[host], h)
		}
		if h.Counts[httpkit.KindDial] == 0 {
			t.Errorf("dead host %s recorded no dial failures: %+v", host, h.Counts)
		}
	}

	rep := c.Report()
	if len(rep.Hosts) == 0 {
		t.Fatal("report has no host health snapshot")
	}
	if len(rep.MastodonTimelineFailures) == 0 {
		t.Error("dead instances produced no recorded mastodon timeline gaps")
	}
	// Planner/report consistency: every host reported skipped must be
	// quarantined in the health snapshot.
	quarantined := map[string]bool{}
	for _, h := range rep.Hosts {
		quarantined[h.Host] = h.Quarantined
	}
	for host := range rep.SkippedQuarantined {
		if !quarantined[host] {
			t.Errorf("host %s reported skipped but not quarantined in snapshot", host)
		}
	}
	if cov.MastodonDown > 0 && rep.GapCount() == 0 {
		t.Errorf("coverage lost %d timelines but report shows no gaps", cov.MastodonDown)
	}
	// The fabric saw real chaos, not a no-op storm.
	injected := 0
	for host := range storm.Specs {
		st := e.fab.ChaosStats(host)
		injected += st.FailedDials + st.FlapRejected + st.Resets
	}
	if injected == 0 {
		t.Error("no chaos events recorded on any spec'd host")
	}
	t.Logf("%s", rep.Summary())
	t.Logf("coverage %.4f, %d dead hosts, %d chaos events", reachable, len(storm.Dead), injected)
}

// benchStorm is bench/workloads.go's chaosStorm, the storm chaos_300
// crawls through; bench is its own module, so the test keeps a copy.
// Populated instances die smallest first until 5% of migrants sit on
// dead hosts; the flagship gets tail stalls, and the rest are dealt
// round-robin, in size order, into flapping, lossy, throttled and
// jittered cohorts.
func benchStorm(w *world.World, seed uint64) *memnet.Storm {
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

// gapKeys lists each phase's failed unit keys, sorted. The error texts
// are left out: a dead host's unit fails either by running out of
// retries or on an open breaker, whichever the timing gives.
func gapKeys(rep *crawler.CrawlReport) map[string][]string {
	out := map[string][]string{}
	for phase, gaps := range map[string]map[string]string{
		"queries":   rep.FailedQueries,
		"authors":   rep.DroppedAuthors,
		"twitterTL": rep.TwitterTimelineFailures,
		"mastoTL":   rep.MastodonTimelineFailures,
		"followees": rep.FolloweeGaps,
		"activity":  rep.ActivityGaps,
	} {
		out[phase] = slices.Sorted(maps.Keys(gaps))
	}
	return out
}

// TestChaosDatasetSameAtAnyConcurrency: under chaos_300's storm, with
// its hedging, the dataset and each phase's gap keys do not depend on
// the worker count, because every fault is decided by the request it
// hits and its attempt number. Faults decided per dial split world 1 at
// 300 migrants (a lossy host's retries drew other dials at 8 workers)
// and world 8 at 150.
func TestChaosDatasetSameAtAnyConcurrency(t *testing.T) {
	worlds := []struct {
		migrants int
		seed     uint64
		workers  []int
	}{
		{300, 1, []int{1, 2, 8}},
		{150, 8, []int{1, 8}},
		{150, 2, []int{1, 8}},
		{150, 3, []int{1, 8}},
		{150, 5, []int{1, 8}},
		{150, 13, []int{1, 8}},
	}
	for _, wc := range worlds {
		t.Run(fmt.Sprintf("world%d_%d", wc.seed, wc.migrants), func(t *testing.T) {
			var want []byte
			var wantGaps map[string][]string
			for _, n := range wc.workers {
				e := newSoakEnv(t, wc.migrants, wc.seed)
				benchStorm(e.w, wc.seed).Apply(e.fab)
				cfg := e.config()
				cfg.Concurrency = n
				cfg.Hedge = httpkit.HedgePolicy{Percentile: 0.90, BudgetFrac: 0.05}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				c := crawler.New(cfg)
				ds, err := c.Run(ctx)
				cancel()
				if err != nil {
					t.Fatalf("concurrency %d: %v", n, err)
				}
				got, err := json.Marshal(ds)
				if err != nil {
					t.Fatal(err)
				}
				gaps := gapKeys(c.Report())
				t.Logf("concurrency %d: %d bytes, MastodonDown %d", n, len(got), ds.Coverage().MastodonDown)
				if want == nil {
					want, wantGaps = got, gaps
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("concurrency %d: dataset differs from concurrency %d (%d vs %d bytes)", n, wc.workers[0], len(got), len(want))
				}
				if !reflect.DeepEqual(gaps, wantGaps) {
					t.Errorf("concurrency %d: gap keys %v, want %v", n, gaps, wantGaps)
				}
			}
		})
	}
}

// The crawler's phase numbers (Progress.Phase) that tests name.
const (
	phaseMapping   = 3
	phaseTwitterTL = 4
	phaseMastoTL   = 5
)

// killedInTimelineBatch loads the checkpoint file at path and fails t
// unless it holds a crawl killed inside the timeline batch: the Mastodon
// records wait for the Twitter phase's End record, so the progress is
// still at account mapping and holds no Mastodon timeline.
func killedInTimelineBatch(t *testing.T, path string) *crawler.Progress {
	t.Helper()
	prog, err := store.NewFileCheckpoint(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Phase != phaseMapping || len(prog.Dataset.MastodonTimelines) != 0 {
		t.Fatalf("killed at phase %d with %d Mastodon timelines, want phase %d with none", prog.Phase, len(prog.Dataset.MastodonTimelines), phaseMapping)
	}
	return prog
}

// TestCheckpointResumeConvergesToSameDataset kills the crawl twice and
// resumes from the on-disk checkpoint each time: once at a phase
// boundary (via the Logf hook), once inside the timeline batch. The
// final dataset must be byte-identical to an uninterrupted run over an
// identical world.
func TestCheckpointResumeConvergesToSameDataset(t *testing.T) {
	const nMigrants, seed = 150, 77

	// Reference: uninterrupted run.
	ref := newSoakEnv(t, nMigrants, seed)
	refRec := &recorder{next: ref.http}
	refCfg := ref.config()
	refCfg.HTTP = refRec
	refDS, err := crawler.New(refCfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refDS)
	if err != nil {
		t.Fatal(err)
	}
	timelineRequests := 0
	for _, req := range refRec.sent {
		if ofClass("statuses")(req) {
			timelineRequests++
		}
	}

	// Interrupted: same world seed, fresh services, file checkpoint.
	e := newSoakEnv(t, nMigrants, seed)
	path := filepath.Join(t.TempDir(), "crawl.ckpt.gz")
	ckpt := store.NewFileCheckpoint(path)
	run := func(ctx context.Context, cfg crawler.Config) error {
		cfg.Checkpoint = ckpt
		cfg.CheckpointEvery = 8
		_, err := crawler.New(cfg).Run(ctx)
		return err
	}

	// Kill 1: right after tweet collection, mid-mapping.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := e.config()
	cfg.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "collected") {
			cancel()
		}
	}
	if err := run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("first kill: err = %v, want context.Canceled", err)
	}
	// Kill 2: inside the timeline batch, on the timeline request (Twitter
	// or Mastodon) three quarters of the way through the reference's.
	// The Mastodon units run first, so by then Twitter timelines are
	// being saved and Mastodon records are held.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cfg = e.config()
	cfg.HTTP = &cancelAt{next: e.http, match: ofClass("statuses"), n: timelineRequests * 3 / 4, cancel: cancel}
	if err := run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("second kill: err = %v, want context.Canceled", err)
	}
	t.Logf("second kill after %d of %d timeline requests: %d Twitter timelines saved", timelineRequests*3/4, timelineRequests, len(killedInTimelineBatch(t, path).Dataset.TwitterTimelines))

	// Final resume runs to completion.
	cfg = e.config()
	cfg.Checkpoint = ckpt
	c := crawler.New(cfg)
	ds, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Report().Resumed {
		t.Fatal("final run did not resume from the checkpoint")
	}
	got, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed dataset diverged from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// TestCheckpointSkipsCompletedRun re-runs a finished crawl from its
// checkpoint: no phase re-executes, and the dataset is unchanged.
func TestCheckpointSkipsCompletedRun(t *testing.T) {
	e := newSoakEnv(t, 60, 5)
	ckpt := &crawler.MemCheckpoint{}
	cfg := e.config()
	cfg.Checkpoint = ckpt
	ds1, err := crawler.New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	saves := ckpt.Saves()
	if saves == 0 {
		t.Fatal("no checkpoint saves during run")
	}

	// Take the whole fediverse down: a re-run that touches the network
	// at all would change states, a checkpoint-complete run cannot.
	for _, host := range e.fab.Hosts() {
		if host != birdsite.Host && host != indexsvc.Host && host != toxsvc.Host {
			e.fab.SetDown(host, true)
		}
	}
	ds2, err := crawler.New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(ds1)
	b2, _ := json.Marshal(ds2)
	if string(b1) != string(b2) {
		t.Fatal("completed checkpoint re-run changed the dataset")
	}
}

// tailStorm injects per-request tail latency on the flagship instance —
// throttled, jittered, and with a 35% chance any exchange stalls 60ms —
// plus light jitter everywhere else. Nothing dies: the storm models an
// overloaded-but-healthy host, the regime hedging is built for.
func tailStorm(w *world.World, seed uint64) *memnet.Storm {
	rng := randx.New(seed)
	storm := &memnet.Storm{Specs: map[string]*memnet.ChaosSpec{}}
	for _, inst := range w.Instances {
		if inst.Domain == "mastodon.social" {
			storm.Specs[inst.Domain] = &memnet.ChaosSpec{
				Seed:         rng.Uint64(),
				BytesPerSec:  512 << 10,
				Jitter:       2 * time.Millisecond,
				PSlowReq:     0.35,
				SlowReqDelay: 60 * time.Millisecond,
			}
			continue
		}
		storm.Specs[inst.Domain] = &memnet.ChaosSpec{Seed: rng.Uint64(), Jitter: time.Millisecond}
	}
	return storm
}

// TestChaosHedgedTailLatency drives the pipeline against a tail-heavy
// flagship with hedging on, killing the run once inside the timeline
// batch to prove checkpoints taken amid hedged traffic resume cleanly.
// Invariants: hedges fire but stay within budget, the slow-but-alive
// host never trips its breaker (no more opens than the unhedged
// baseline), and the dataset is byte-identical to an unhedged run —
// hedging is semantically transparent.
func TestChaosHedgedTailLatency(t *testing.T) {
	const nMigrants, worldSeed, stormSeed = 150, 77, 1717
	flagship := mastodonStatuses("mastodon.social")

	// Baseline: same world, same storm, no hedging, global concurrency only.
	base := newSoakEnv(t, nMigrants, worldSeed)
	tailStorm(base.w, stormSeed).Apply(base.fab)
	baseRec := &recorder{next: base.http}
	baseCfg := base.config()
	baseCfg.HTTP = baseRec
	cBase := crawler.New(baseCfg)
	dsBase, err := cBase.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	baseOpens := 0
	for _, h := range cBase.Health().Snapshot() {
		baseOpens += h.Opens
	}
	flagshipStatuses := 0
	for _, req := range baseRec.sent {
		if flagship(req) {
			flagshipStatuses++
		}
	}

	// Hedged run on a fresh but identically seeded world.
	e := newSoakEnv(t, nMigrants, worldSeed)
	tailStorm(e.w, stormSeed).Apply(e.fab)
	path := filepath.Join(t.TempDir(), "hedged.ckpt.gz")
	ckpt := store.NewFileCheckpoint(path)
	hedge := httpkit.HedgePolicy{Percentile: 0.75, MinSamples: 8, BudgetFrac: 0.05, MinDelay: 5 * time.Millisecond}
	mkCfg := func() crawler.Config {
		cfg := e.config()
		cfg.Checkpoint = ckpt
		cfg.CheckpointEvery = 8
		cfg.Hedge = hedge
		return cfg
	}

	// Kill inside the timeline batch, on the flagship statuses request
	// halfway through the baseline's: checkpoints have been taken while
	// hedges were in flight against the flagship.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCfg := mkCfg()
	killCfg.HTTP = &cancelAt{next: e.http, match: flagship, n: flagshipStatuses / 2, cancel: cancel}
	cKill := crawler.New(killCfg)
	if _, err := cKill.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("kill: err = %v, want context.Canceled", err)
	}
	saved := killedInTimelineBatch(t, path).Dataset.TwitterTimelines
	t.Logf("killed after %d of %d flagship statuses requests: %d Twitter timelines saved, %d hedges fired", flagshipStatuses/2, flagshipStatuses, len(saved), cKill.Report().HTTPStats.HedgesFired)

	// Resume to completion under a hang guard.
	rctx, rcancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer rcancel()
	c := crawler.New(mkCfg())
	ds, err := c.Run(rctx)
	if err != nil {
		t.Fatalf("hedged resume failed (ctx err %v): %v", rctx.Err(), err)
	}
	if !c.Report().Resumed {
		t.Fatal("final run did not resume from the checkpoint")
	}

	rep := c.Report()
	stats := rep.HTTPStats
	if stats.HedgesFired == 0 {
		t.Fatalf("tail-heavy flagship never triggered a hedge: %+v", stats)
	}
	if float64(stats.HedgesFired) > hedge.BudgetFrac*float64(stats.Requests) {
		t.Fatalf("hedges %d exceed %.0f%% budget of %d requests",
			stats.HedgesFired, hedge.BudgetFrac*100, stats.Requests)
	}

	// Slow is not dead: the tail host must not trip its breaker, and
	// hedging must not inflate breaker opens over the baseline.
	health := c.Health()
	if h := health.Health("mastodon.social"); h.Opens != 0 {
		t.Errorf("tail-latency host tripped its breaker %d times: %+v", h.Opens, h)
	}
	hedgedOpens := 0
	for _, h := range health.Snapshot() {
		hedgedOpens += h.Opens
	}
	if hedgedOpens > baseOpens {
		t.Errorf("hedged run opened %d breakers, baseline %d", hedgedOpens, baseOpens)
	}

	// Hedging is semantically transparent: identical dataset bytes.
	got, _ := json.Marshal(ds)
	want, _ := json.Marshal(dsBase)
	if string(got) != string(want) {
		t.Fatalf("hedged dataset diverged from baseline: %d vs %d bytes", len(got), len(want))
	}
	t.Logf("hedges fired %d / won %d / denied %d over %d requests",
		stats.HedgesFired, stats.HedgeWins, stats.HedgesDenied, stats.Requests)
}

// copyFile duplicates a checkpoint file so resume legs can diverge.
func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantinePlannerSkipsAcrossResume is the tentpole's end-to-end
// proof: a host quarantined before a kill must not be re-dialed by the
// resumed run. The target instance refuses every request (so the
// fabric's Requests counter records each attempt), the crawl is killed
// after the mapping phase has quarantined it, and three resume legs
// check the host gate from different angles:
//
//  1. health resume on: zero new dials, host named in SkippedQuarantined,
//     its pairs resolved as instance-down;
//  2. -no-health-resume: the registry starts empty, so the crawl re-dials
//     and re-learns the dead host;
//  3. probation expired: the host decays to probe-able and is dialed
//     again (one probe at a time) instead of being banned forever.
func TestQuarantinePlannerSkipsAcrossResume(t *testing.T) {
	e := newSoakEnv(t, 120, 31)

	// Target: the non-flagship instance hosting the most migrants, so
	// mapping generates plenty of lookups (and breaker opens) against it.
	target, best := "", -1
	for i, inst := range e.w.Instances {
		if inst.Domain == "mastodon.social" {
			continue
		}
		if n := e.w.MigrantsPerInstance[i]; n > best {
			target, best = inst.Domain, n
		}
	}
	if best < 2 {
		t.Fatalf("world too small: best non-flagship instance has %d migrants", best)
	}
	e.fab.SetChaos(target, &memnet.ChaosSpec{Seed: 7, PDialFail: 1.0})

	dir := t.TempDir()
	path := filepath.Join(dir, "crawl.ckpt.gz")
	mkCfg := func(ckptPath string) crawler.Config {
		cfg := e.config()
		cfg.Checkpoint = store.NewFileCheckpoint(ckptPath)
		cfg.CheckpointEvery = 8
		cfg.Breaker = httpkit.BreakerPolicy{FailureThreshold: 2, Cooldown: time.Millisecond, QuarantineAfter: 2}
		return cfg
	}

	// Leg 0: run until mapping completes, then kill. Every lookup against
	// the target fails its dials, tripping the breaker past the
	// quarantine threshold before the checkpoint flush.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCfg := mkCfg(path)
	killCfg.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "mapped") {
			cancel()
		}
	}
	cKill := crawler.New(killCfg)
	if _, err := cKill.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("kill leg: err = %v, want context.Canceled", err)
	}
	if h := cKill.Health().Health(target); !h.Quarantined {
		t.Fatalf("target %s not quarantined before kill: %+v", target, h)
	}
	dialsAtKill := e.fab.ChaosStats(target).Requests
	if dialsAtKill == 0 {
		t.Fatalf("target %s was never dialed during the kill leg", target)
	}
	noResumePath := filepath.Join(dir, "no-resume.ckpt.gz")
	probePath := filepath.Join(dir, "probe.ckpt.gz")
	copyFile(t, path, noResumePath)
	copyFile(t, path, probePath)

	// Leg 1: resume with health restore. The gate must partition the
	// target out of every remaining phase — not one more dial.
	c := crawler.New(mkCfg(path))
	ds, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("resume leg: %v", err)
	}
	rep := c.Report()
	if !rep.Resumed {
		t.Fatal("resume leg did not resume from the checkpoint")
	}
	if got := e.fab.ChaosStats(target).Requests; got != dialsAtKill {
		t.Fatalf("resumed run re-dialed quarantined host %s: %d dials, was %d at kill", target, got, dialsAtKill)
	}
	if rep.SkippedQuarantined[target] == "" {
		t.Fatalf("SkippedQuarantined missing %s: %v", target, rep.SkippedQuarantined)
	}
	// The skipped host's pairs stay accounted: instance-down timelines
	// plus per-unit gap entries, never silently dropped.
	onTarget := 0
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		if p.Handle.Domain != target {
			continue
		}
		onTarget++
		tl := ds.MastodonTimelines[p.TwitterID]
		if tl == nil || tl.State != crawler.StateInstanceDown {
			t.Errorf("pair %s on quarantined %s: timeline %+v, want instance-down", p.TwitterID, target, tl)
		}
	}
	if onTarget == 0 {
		t.Fatalf("no mapped pairs landed on target %s; test proves nothing", target)
	}

	// Leg 2: -no-health-resume discards the snapshot, so the crawl
	// re-learns the dead host the hard way — dials must grow.
	cfg2 := mkCfg(noResumePath)
	cfg2.NoHealthResume = true
	c2 := crawler.New(cfg2)
	if _, err := c2.Run(context.Background()); err != nil {
		t.Fatalf("no-health-resume leg: %v", err)
	}
	afterLeg1 := e.fab.ChaosStats(target).Requests
	if afterLeg1 <= dialsAtKill {
		t.Fatalf("no-health-resume leg never re-dialed %s (%d dials)", target, afterLeg1)
	}
	if c2.Report().SkippedQuarantined[target] != "" {
		// Quarantine can re-form mid-run (that is the point of the
		// gate), but it must come from fresh observations: the run
		// above re-dialed, so this is only informational.
		t.Logf("no-health-resume leg re-quarantined %s from fresh failures", target)
	}

	// Leg 3: probation expired. The imported quarantine has aged out, so
	// the gate probes the host instead of skipping it.
	cfg3 := mkCfg(probePath)
	cfg3.Breaker.Probation = time.Nanosecond
	c3 := crawler.New(cfg3)
	if _, err := c3.Run(context.Background()); err != nil {
		t.Fatalf("probation leg: %v", err)
	}
	if got := e.fab.ChaosStats(target).Requests; got <= afterLeg1 {
		t.Fatalf("probation-expired leg never probed %s (%d dials)", target, got)
	}
	if c3.Report().SkippedQuarantined[target] != "" {
		t.Fatalf("probation-expired leg skipped %s instead of probing", target)
	}
}

// TestCheckpointV1BackwardCompat and TestCheckpointV2BackwardCompat
// resume from checkpoint files written the way schemas v1 and v2 wrote
// them, one gzip member holding one JSON value: v1 without the version
// field and the health snapshot, v2 with both. Each is killed inside a
// phase with done units and keeps them in that phase's own set, as those
// schemas did: v1 mid-mapping (done_authors), v2 mid-activity
// (done_activity). Each must load that set, resume to the dataset of an
// uninterrupted crawl and re-save under the current schema.
func TestCheckpointV1BackwardCompat(t *testing.T) { testLegacyResume(t, 0, 2, "done_authors") }

func TestCheckpointV2BackwardCompat(t *testing.T) { testLegacyResume(t, 2, 6, "done_activity") }

// phaseKiller cancels the crawl after the n-th save of a progress at
// phase, the phase before the one in progress.
type phaseKiller struct {
	crawler.Checkpoint
	phase, n, seen int
	cancel         context.CancelFunc
}

func (k *phaseKiller) Save(p *crawler.Progress) error {
	err := k.Checkpoint.Save(p)
	if p.Phase == k.phase {
		if k.seen++; k.seen == k.n {
			k.cancel()
		}
	}
	return err
}

func testLegacyResume(t *testing.T, version, phase int, field string) {
	refDS, err := crawler.New(newSoakEnvFrom(t, sparseWorld()).config()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refDS)
	if err != nil {
		t.Fatal(err)
	}

	// A mid-crawl progress: killed after the phase's first periodic save,
	// so the phase in progress has done units. Four workers leave it
	// units still to run when the kill lands.
	e := newSoakEnvFrom(t, sparseWorld())
	mem := &crawler.MemCheckpoint{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := e.config()
	cfg.Concurrency = 4
	cfg.Checkpoint = &phaseKiller{Checkpoint: mem, phase: phase, n: 2, cancel: cancel}
	cfg.CheckpointEvery = 4
	if _, err := crawler.New(cfg).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("kill: err = %v, want context.Canceled", err)
	}
	prog, err := mem.Load()
	if err != nil {
		t.Fatal(err)
	}
	if prog.Phase != phase || len(prog.Done) == 0 {
		t.Fatalf("killed at phase %d with %d done units, want phase %d with some", prog.Phase, len(prog.Done), phase)
	}
	raw, err := json.Marshal(prog)
	if err != nil {
		t.Fatal(err)
	}
	var legacy map[string]json.RawMessage
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}
	legacy[field] = legacy["done"]
	delete(legacy, "done")
	legacy["version"] = json.RawMessage(strconv.Itoa(version))
	if version < 2 {
		delete(legacy, "version")
		delete(legacy, "health")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := json.NewEncoder(zw).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "legacy.ckpt.gz")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.NewFileCheckpoint(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(loaded.Done, prog.Done) {
		t.Fatalf("v%d file loaded %d done units, want its %d %s", version, len(loaded.Done), len(prog.Done), field)
	}

	cfg = e.config()
	cfg.Checkpoint = store.NewFileCheckpoint(path)
	c := crawler.New(cfg)
	ds, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("v%d resume failed: %v", version, err)
	}
	if !c.Report().Resumed {
		t.Fatalf("v%d resume did not report Resumed", version)
	}
	got, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("v%d resume diverged from the uninterrupted crawl: got %d bytes, want %d", version, len(got), len(want))
	}
	saved, err := store.NewFileCheckpoint(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if saved.Version != crawler.ProgressVersion {
		t.Fatalf("resumed checkpoint version = %d, want %d", saved.Version, crawler.ProgressVersion)
	}
}
