// Package core wires the whole reproduction together: it generates a
// synthetic world, serves the simulated platforms over an in-memory
// network, runs the paper's crawl methodology against them, and computes
// every analysis in the evaluation. It is the public entry point used by
// the cmd tools, the examples and the benchmark harness.
//
// The one-call form:
//
//	res, err := core.Run(ctx, core.DefaultConfig(2000))
//
// gives a Result with the dataset and all figure-level analyses. For
// finer control (e.g. keeping the services alive to poke at them), use
// NewEnv + Env.Crawl + Analyze.
package core

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"flock/internal/analysis"
	"flock/internal/birdsite"
	"flock/internal/crawler"
	"flock/internal/fediverse"
	"flock/internal/indexsvc"
	"flock/internal/memnet"
	"flock/internal/toxsvc"
	"flock/internal/world"
)

// Config parameterizes a full pipeline run.
type Config struct {
	// World is the generative model configuration.
	World world.Config
	// ScoreToxicity runs the §6.3 Perspective pass over every post
	// during the crawl (HTTP per post; the faithful but slower path).
	ScoreToxicity bool
	// AnalysisWorkers bounds the worker pool of the analysis passes
	// that fan out: overlap, toxicity and hashtags (<= 0: GOMAXPROCS).
	// Results are byte-identical at any setting; the knob only trades
	// wall-clock for cores.
	AnalysisWorkers int
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// DefaultConfig returns a pipeline config for a world of nMigrants.
func DefaultConfig(nMigrants int) Config {
	return Config{World: world.DefaultConfig(nMigrants), ScoreToxicity: true}
}

// Env is a running simulated internet: world + services on a fabric.
type Env struct {
	World  *world.World
	Fabric *memnet.Fabric
	Fedi   *fediverse.Service
	Client *http.Client
	stops  []func()
}

// NewEnv generates the world and binds every service to a fresh
// fabric. ctx is passed on to memnet.Fabric.Serve, which does not use
// it.
func NewEnv(ctx context.Context, cfg world.Config) (*Env, error) {
	w, err := world.Generate(cfg)
	if err != nil {
		return nil, err
	}
	fab := memnet.NewFabric()
	env := &Env{World: w, Fabric: fab, Client: fab.Client()}
	serve := func(host string, h http.Handler) error {
		stop, err := fab.Serve(ctx, host, h)
		if err != nil {
			return err
		}
		env.stops = append(env.stops, stop)
		return nil
	}
	if err := serve(birdsite.Host, birdsite.New(w).Handler()); err != nil {
		return nil, err
	}
	if err := serve(indexsvc.Host, indexsvc.New(w).Handler()); err != nil {
		return nil, err
	}
	if err := serve(toxsvc.Host, toxsvc.New(0).Handler()); err != nil {
		return nil, err
	}
	env.Fedi = fediverse.New(w)
	stop, err := env.Fedi.RegisterAll(ctx, fab)
	if err != nil {
		return nil, err
	}
	env.stops = append(env.stops, stop)
	return env, nil
}

// Close shuts every service down.
func (e *Env) Close() {
	for _, stop := range e.stops {
		stop()
	}
	e.Fabric.Close()
}

// Crawl runs the paper's §3 methodology against the environment, eight
// work units at a time. The world's down instances go offline between
// mapping and the timeline crawl, reproducing §3.2's 11.58% failure.
func (e *Env) Crawl(ctx context.Context, cfg Config) (*crawler.Dataset, error) {
	c := crawler.New(crawler.Config{
		TwitterBase:     "https://" + birdsite.Host,
		IndexBase:       "https://" + indexsvc.Host,
		PerspectiveBase: "https://" + toxsvc.Host,
		Transport:       crawler.Transport{HTTP: e.Client, Concurrency: 8},
		ScoreToxicity:   cfg.ScoreToxicity,
		Logf:            cfg.Logf,
		BeforeTimelines: func() { e.Fedi.ApplyOutages(e.Fabric) },
	})
	return c.Run(ctx)
}

// Result bundles the dataset with every analysis in the evaluation.
type Result struct {
	World    *world.World
	Dataset  *crawler.Dataset
	Coverage crawler.CoverageStats

	RQ1        *analysis.Centralization   // Figs. 4-6
	Networks   *analysis.NetworkSizes     // Fig. 7
	Contagion  *analysis.Contagion        // Fig. 8
	Switching  *analysis.Switching        // Figs. 9-10
	Daily      *analysis.DailyActivity    // Fig. 11
	Sources    *analysis.Sources          // Figs. 12-13
	Overlap    *analysis.Overlap          // Fig. 14
	Hashtags   *analysis.HashtagTables    // Fig. 15
	Toxicity   *analysis.ToxicityResult   // Fig. 16
	Collection *analysis.CollectionSeries // Fig. 2
	Activity   *analysis.ActivitySeries   // Fig. 3
	Retention  *analysis.RetentionResult  // §8 future-work extension
}

// Analyze computes every analysis over a crawled dataset.
func Analyze(ds *crawler.Dataset, cfg Config) *Result {
	var scoreFn func(string) float64
	if !cfg.ScoreToxicity {
		// Posts were not scored during the crawl; fall back to scoring
		// locally with the same model the service uses.
		scoreFn = toxsvc.Score
	}
	eng := analysis.Engine{Workers: cfg.AnalysisWorkers}
	res := &Result{Dataset: ds, Coverage: ds.Coverage()}
	// Each pass runs under a timer so cfg.Logf (cmd/figures -timing)
	// can report where analysis wall-clock goes.
	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		if cfg.Logf != nil {
			cfg.Logf("analysis %-10s %8s", name, time.Since(start).Round(time.Microsecond))
		}
	}
	timed("rq1", func() { res.RQ1 = eng.RQ1(ds) })
	timed("networks", func() { res.Networks = eng.SocialNetworkSizes(ds) })
	timed("contagion", func() { res.Contagion = eng.RQ2Contagion(ds) })
	timed("switching", func() { res.Switching = eng.RQ2Switching(ds) })
	timed("daily", func() { res.Daily = eng.Timelines(ds) })
	timed("sources", func() { res.Sources = eng.RQ3Sources(ds) })
	timed("overlap", func() {
		res.Overlap = eng.RQ3Overlap(ds, analysis.OverlapOptions{})
	})
	timed("hashtags", func() { res.Hashtags = eng.RQ3Hashtags(ds) })
	timed("toxicity", func() {
		res.Toxicity = eng.RQ3Toxicity(ds, analysis.ToxicityOptions{ScoreFn: scoreFn})
	})
	timed("collection", func() { res.Collection = eng.CollectionFigure(ds) })
	timed("activity", func() { res.Activity = eng.ActivityFigure(ds) })
	timed("retention", func() { res.Retention = eng.RQ4Retention(ds) })
	return res
}

// Run executes the full pipeline: world, services, crawl, analyses.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	env, err := NewEnv(ctx, cfg.World)
	if err != nil {
		return nil, fmt.Errorf("core: environment: %w", err)
	}
	defer env.Close()
	ds, err := env.Crawl(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: crawl: %w", err)
	}
	res := Analyze(ds, cfg)
	res.World = env.World
	return res, nil
}
