// Package flock's benchmark harness regenerates every table and figure
// of the paper's evaluation (Figs. 1-16): each BenchmarkFigNN runs the
// analysis behind that figure against a crawled dataset from the shared
// simulated world, renders it, and reports the headline statistic as a
// benchmark metric next to the paper's value (suffix _paper vs _measured,
// scaled by 1000 for readability: 96% -> 960).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Ablation benchmarks at the bottom quantify the reproduction's design
// choices (hierarchical matching, stratified sampling, similarity and
// toxicity thresholds, tail-latency hedging, parallel analysis).
package flock

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"flock/internal/analysis"
	"flock/internal/birdsite"
	"flock/internal/core"
	"flock/internal/crawler"
	"flock/internal/httpkit"
	"flock/internal/indexsvc"
	"flock/internal/match"
	"flock/internal/memnet"
	"flock/internal/randx"
	"flock/internal/report"
	"flock/internal/stats"
	"flock/internal/textkit"
	"flock/internal/toxsvc"
	"flock/internal/trendsvc"
	"flock/internal/vclock"
)

var (
	benchOnce sync.Once
	benchRes  *core.Result
	benchErr  error
)

// benchResult crawls one shared world for all figure benchmarks.
func benchResult(b *testing.B) *core.Result {
	benchOnce.Do(func() {
		cfg := core.DefaultConfig(500)
		cfg.World.Seed = 99
		cfg.ScoreToxicity = false
		benchRes, benchErr = core.Run(context.Background(), cfg)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRes
}

// metric reports paper-vs-measured pairs as custom benchmark metrics.
func metric(b *testing.B, name string, paper, measured float64) {
	b.ReportMetric(paper*1000, name+"_paper")
	b.ReportMetric(measured*1000, name+"_measured")
}

func BenchmarkFig01Trends(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		for _, term := range trendsvc.Terms() {
			_ = trendsvc.Series(term)
		}
		out = report.Fig1Trends()
	}
	if !strings.Contains(out, "mastodon") {
		b.Fatal("bad render")
	}
	peak, _ := trendsvc.PeakDate("twitter alternatives")
	metric(b, "peak_day_after_takeover", 1, peak.Sub(vclock.Takeover).Hours()/24)
}

func BenchmarkFig02TweetCollection(b *testing.B) {
	res := benchResult(b)
	var c *analysis.CollectionSeries
	for i := 0; i < b.N; i++ {
		c = analysis.Engine{}.CollectionFigure(res.Dataset)
		_ = report.Fig2Collection(c)
	}
	pre, post := 0, 0
	takeover := vclock.Day(vclock.Takeover)
	for d := range c.Days {
		v := c.Keywords[d] + c.InstanceLinks[d]
		if d < takeover {
			pre += v
		} else {
			post += v
		}
	}
	if pre > 0 {
		metric(b, "post_vs_pre_volume", 10, float64(post)/float64(pre))
	}
}

func BenchmarkFig03WeeklyActivity(b *testing.B) {
	res := benchResult(b)
	var a *analysis.ActivitySeries
	for i := 0; i < b.N; i++ {
		a = analysis.Engine{}.ActivityFigure(res.Dataset)
		_ = report.Fig3Activity(a)
	}
	if len(a.Weeks) == 0 {
		b.Fatal("no activity")
	}
}

func BenchmarkFig04TopInstances(b *testing.B) {
	res := benchResult(b)
	var c *analysis.Centralization
	for i := 0; i < b.N; i++ {
		c = analysis.Engine{}.RQ1(res.Dataset)
		_ = report.Fig4TopInstances(c)
	}
	metric(b, "pre_takeover_accounts", 0.21, c.PreTakeoverAccountFrac)
}

func BenchmarkFig05TopShare(b *testing.B) {
	res := benchResult(b)
	var c *analysis.Centralization
	for i := 0; i < b.N; i++ {
		c = analysis.Engine{}.RQ1(res.Dataset)
		_ = report.Fig5TopShare(c)
	}
	metric(b, "top25_share", 0.96, c.Top25Share)
}

func BenchmarkFig06SizeQuantiles(b *testing.B) {
	res := benchResult(b)
	var c *analysis.Centralization
	for i := 0; i < b.N; i++ {
		c = analysis.Engine{}.RQ1(res.Dataset)
		_ = report.Fig6SizeQuantiles(c)
	}
	metric(b, "single_user_status_boost", 1.2114, c.SingleVsLargest.StatusBoost)
}

func BenchmarkFig07NetworkCDF(b *testing.B) {
	res := benchResult(b)
	var n *analysis.NetworkSizes
	for i := 0; i < b.N; i++ {
		n = analysis.Engine{}.SocialNetworkSizes(res.Dataset)
		_ = report.Fig7Networks(n)
	}
	// The preserved quantity is the cross-platform followee ratio
	// (paper: 48/787 ~ 0.061).
	if n.MedianTwitterFollowees > 0 {
		metric(b, "mastodon_twitter_followee_ratio", 0.061, n.MedianMastodonFollowees/n.MedianTwitterFollowees)
	}
}

func BenchmarkFig08FolloweeMigration(b *testing.B) {
	res := benchResult(b)
	var c *analysis.Contagion
	for i := 0; i < b.N; i++ {
		c = analysis.Engine{}.RQ2Contagion(res.Dataset)
		_ = report.Fig8Contagion(c)
	}
	metric(b, "followees_migrated_mean", 0.0599, c.MeanFracMigrated)
	metric(b, "followees_before_mean", 0.4576, c.MeanFracBefore)
}

func BenchmarkFig09SwitchChord(b *testing.B) {
	res := benchResult(b)
	var s *analysis.Switching
	for i := 0; i < b.N; i++ {
		s = analysis.Engine{}.RQ2Switching(res.Dataset)
		_ = report.Fig9Chord(s)
	}
	metric(b, "switcher_frac", 0.0409, s.SwitcherFrac)
	metric(b, "post_takeover_switches", 0.9722, s.PostTakeoverFrac)
}

func BenchmarkFig10SwitchInfluence(b *testing.B) {
	res := benchResult(b)
	var s *analysis.Switching
	for i := 0; i < b.N; i++ {
		s = analysis.Engine{}.RQ2Switching(res.Dataset)
		_ = report.Fig10SwitchInfluence(s)
	}
	metric(b, "followees_at_second", 0.4698, s.MeanFracSecond)
	metric(b, "second_before_user", 0.7742, s.MeanFracSecondBefore)
}

func BenchmarkFig11DailyActivity(b *testing.B) {
	res := benchResult(b)
	var d *analysis.DailyActivity
	for i := 0; i < b.N; i++ {
		d = analysis.Engine{}.Timelines(res.Dataset)
		_ = report.Fig11Daily(d)
	}
	if len(d.Days) != vclock.StudyDays {
		b.Fatal("bad day count")
	}
}

func BenchmarkFig12Sources(b *testing.B) {
	res := benchResult(b)
	var s *analysis.Sources
	for i := 0; i < b.N; i++ {
		s = analysis.Engine{}.RQ3Sources(res.Dataset)
		_ = report.Fig12Sources(s)
	}
	metric(b, "crossposter_users", 0.0573, s.CrossposterUserFrac)
}

func BenchmarkFig13CrossposterUsers(b *testing.B) {
	res := benchResult(b)
	var s *analysis.Sources
	for i := 0; i < b.N; i++ {
		s = analysis.Engine{}.RQ3Sources(res.Dataset)
		_ = report.Fig13Crossposters(s)
	}
	max := 0
	for _, n := range s.DailyCrossposterUsers {
		if n > max {
			max = n
		}
	}
	if max == 0 {
		b.Skip("no crossposter activity in world")
	}
}

func BenchmarkFig14ContentSimilarity(b *testing.B) {
	res := benchResult(b)
	var o *analysis.Overlap
	for i := 0; i < b.N; i++ {
		o = analysis.Engine{}.RQ3Overlap(res.Dataset, analysis.OverlapOptions{MaxUsers: 100})
		_ = report.Fig14Overlap(o)
	}
	metric(b, "identical_mean", 0.0153, o.MeanIdentical)
	metric(b, "similar_mean", 0.1657, o.MeanSimilar)
}

func BenchmarkFig15Hashtags(b *testing.B) {
	res := benchResult(b)
	var h *analysis.HashtagTables
	for i := 0; i < b.N; i++ {
		h = analysis.Engine{}.RQ3Hashtags(res.Dataset)
		_ = report.Fig15Hashtags(h)
	}
	if len(h.Mastodon) == 0 {
		b.Fatal("no hashtags")
	}
}

func BenchmarkFig16Toxicity(b *testing.B) {
	res := benchResult(b)
	var x *analysis.ToxicityResult
	for i := 0; i < b.N; i++ {
		x = analysis.Engine{}.RQ3Toxicity(res.Dataset, analysis.ToxicityOptions{ScoreFn: toxsvc.Score})
		_ = report.Fig16Toxicity(x)
	}
	metric(b, "tweet_toxicity", 0.0549, x.OverallTweetToxic)
	metric(b, "status_toxicity", 0.028, x.OverallStatusToxic)
}

// BenchmarkExtRetention runs the §8 future-work extension: end-of-window
// retention classification.
func BenchmarkExtRetention(b *testing.B) {
	res := benchResult(b)
	var r *analysis.RetentionResult
	for i := 0; i < b.N; i++ {
		r = analysis.Engine{}.RQ4Retention(res.Dataset)
		_ = report.Retention(r)
	}
	b.ReportMetric(r.RetainedFrac*1000, "retained_measured")
	b.ReportMetric(r.ReturnedFrac*1000, "returned_measured")
}

// BenchmarkPipelineEndToEnd measures a whole small-world run: world
// generation, HTTP crawl, all analyses.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(120)
		cfg.World.Seed = uint64(i + 1)
		cfg.ScoreToxicity = false
		if _, err := core.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// BenchmarkAblationMatcherStrategy compares the paper's hierarchical
// matcher (exact-username guard on tweet-text matches) against the
// guardless variant, measuring false positives on a corpus where users
// mention other people's handles.
func BenchmarkAblationMatcherStrategy(b *testing.B) {
	known := match.NewKnownInstances([]string{"mastodon.social"})
	rng := randx.New(1)
	gen := textkit.NewGenerator(rng)
	type caseT struct {
		profile match.Profile
		tweets  []string
		truth   bool // user actually migrated
	}
	var cases []caseT
	for i := 0; i < 500; i++ {
		username := textkit.Topic(i%textkit.NumTopics).String() + "user"
		migrated := i%3 == 0
		var tweets []string
		if migrated {
			tweets = append(tweets, gen.MigrationAnnouncement(0, username, "mastodon.social"))
		} else {
			// Mentions a friend's handle without migrating.
			tweets = append(tweets, "you should all follow @someoneelse@mastodon.social, great posts")
		}
		cases = append(cases, caseT{
			profile: match.Profile{Username: username},
			tweets:  tweets,
			truth:   migrated,
		})
	}
	var strictFP, looseFP int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strictFP, looseFP = 0, 0
		for _, c := range cases {
			if _, ok := match.Map(c.profile, c.tweets, known); ok && !c.truth {
				strictFP++
			}
			if _, ok := match.MapLoose(c.profile, c.tweets, known); ok && !c.truth {
				looseFP++
			}
		}
	}
	b.ReportMetric(float64(strictFP), "strict_false_positives")
	b.ReportMetric(float64(looseFP), "loose_false_positives")
}

// BenchmarkAblationSampling compares §3.3's median-straddling sample
// against naive head sampling: the bias in mean followee count.
func BenchmarkAblationSampling(b *testing.B) {
	res := benchResult(b)
	ds := res.Dataset
	var all []float64
	for i := range ds.Pairs {
		all = append(all, float64(ds.Pairs[i].TwitterFollowing))
	}
	trueMean := stats.Mean(all)
	var stratBias, headBias float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stratified: evenly spaced over the sorted distribution.
		e := stats.NewECDF(all)
		var strat []float64
		for q := 0.05; q < 1; q += 0.1 {
			strat = append(strat, e.Quantile(q))
		}
		// Head: first 10% by magnitude (what a lazy crawl does).
		head := append([]float64(nil), all...)
		for a := 1; a < len(head); a++ {
			for c := a; c > 0 && head[c-1] > head[c]; c-- {
				head[c-1], head[c] = head[c], head[c-1]
			}
		}
		head = head[:len(head)/10+1]
		stratBias = (stats.Mean(strat) - trueMean) / trueMean
		headBias = (stats.Mean(head) - trueMean) / trueMean
	}
	b.ReportMetric(stratBias*100, "stratified_bias_pct")
	b.ReportMetric(headBias*100, "head_bias_pct")
}

// BenchmarkAblationSimThreshold sweeps the Fig. 14 similarity cutoff.
func BenchmarkAblationSimThreshold(b *testing.B) {
	res := benchResult(b)
	for _, th := range []float64{0.5, 0.7, 0.8} {
		b.Run(thName(th), func(b *testing.B) {
			var o *analysis.Overlap
			for i := 0; i < b.N; i++ {
				o = analysis.Engine{}.RQ3Overlap(res.Dataset, analysis.OverlapOptions{Threshold: th, MaxUsers: 60})
			}
			metric(b, "similar_mean", 0.1657, o.MeanSimilar)
		})
	}
}

func thName(th float64) string {
	return "threshold_" + strings.ReplaceAll(strconv.FormatFloat(th, 'f', 1, 64), ".", "_")
}

// BenchmarkAblationToxThreshold sweeps the §6.3 toxicity cutoff (0.5 vs
// the stricter 0.8 used by some prior work).
func BenchmarkAblationToxThreshold(b *testing.B) {
	res := benchResult(b)
	for _, th := range []float64{0.5, 0.8} {
		name := "threshold_0_5"
		if th == 0.8 {
			name = "threshold_0_8"
		}
		b.Run(name, func(b *testing.B) {
			var x *analysis.ToxicityResult
			for i := 0; i < b.N; i++ {
				x = analysis.Engine{}.RQ3Toxicity(res.Dataset, analysis.ToxicityOptions{Threshold: th, ScoreFn: toxsvc.Score})
			}
			metric(b, "tweet_toxicity", 0.0549, x.OverallTweetToxic)
		})
	}
}

// BenchmarkAblationTailLatency quantifies the tail-at-scale design: a
// soak where the flagship instance is byte-throttled and stalls 8% of
// exchanges for 250ms. The global-bound baseline eats the tail on every
// slow exchange; the hedged client races a backup after the host's p90.
// Wall-clock per crawl is the benchmark time; hedge counters ride along
// as metrics.
func BenchmarkAblationTailLatency(b *testing.B) {
	ctx := context.Background()
	wcfg := core.DefaultConfig(120).World
	wcfg.Seed = 99
	env, err := core.NewEnv(ctx, wcfg)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	rng := randx.New(2024)
	for _, inst := range env.World.Instances {
		spec := &memnet.ChaosSpec{Seed: rng.Uint64(), Jitter: time.Millisecond}
		if inst.Domain == "mastodon.social" {
			spec = &memnet.ChaosSpec{
				Seed:         rng.Uint64(),
				BytesPerSec:  512 << 10,
				Jitter:       2 * time.Millisecond,
				PSlowReq:     0.08,
				SlowReqDelay: 250 * time.Millisecond,
			}
		}
		env.Fabric.SetChaos(inst.Domain, spec)
	}
	mkCfg := func() crawler.Config {
		return crawler.Config{
			TwitterBase:     "https://" + birdsite.Host,
			IndexBase:       "https://" + indexsvc.Host,
			PerspectiveBase: "https://" + toxsvc.Host,
			Transport:       crawler.Transport{HTTP: env.Client, Concurrency: 12},
		}
	}
	crawl := func(b *testing.B, cfg crawler.Config) *crawler.Crawler {
		c := crawler.New(cfg)
		if _, err := c.Run(ctx); err != nil {
			b.Fatal(err)
		}
		return c
	}
	b.Run("global_bound", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			crawl(b, mkCfg())
		}
	})
	b.Run("hedged", func(b *testing.B) {
		var st httpkit.Stats
		for i := 0; i < b.N; i++ {
			cfg := mkCfg()
			cfg.Hedge = httpkit.HedgePolicy{Percentile: 0.9, MinSamples: 8, BudgetFrac: 0.05, MinDelay: 5 * time.Millisecond}
			st = crawl(b, cfg).Report().HTTPStats
		}
		b.ReportMetric(float64(st.HedgesFired), "hedges_fired")
		b.ReportMetric(float64(st.HedgeWins), "hedge_wins")
		b.ReportMetric(float64(st.HedgesDenied), "hedges_denied")
	})
}

// BenchmarkAblationParallelAnalysis quantifies the deterministic
// parallel analysis engine: the full RQ hot path (centralization,
// contagion, the quadratic Fig. 14 similarity scan, toxicity,
// retention) serially, then at 1/2/4/8 workers. Of these passes only
// the similarity scan and toxicity fan out; the rest are serial loops
// at every setting. Results are byte-identical across all variants (see
// TestAnalysisDeterministicAcrossWorkers); only wall-clock and
// allocations move.
func BenchmarkAblationParallelAnalysis(b *testing.B) {
	res := benchResult(b)
	ds := res.Dataset
	suite := func(eng analysis.Engine) {
		_ = eng.RQ1(ds)
		_ = eng.RQ2Contagion(ds)
		_ = eng.RQ3Overlap(ds, analysis.OverlapOptions{})
		_ = eng.RQ3Toxicity(ds, analysis.ToxicityOptions{ScoreFn: toxsvc.Score})
		_ = eng.RQ4Retention(ds)
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			suite(analysis.Engine{Workers: 1})
		}
	})
	for _, w := range []int{1, 2, 4, 8} {
		w := w
		b.Run("parallel_w"+strconv.Itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				suite(analysis.Engine{Workers: w})
			}
		})
	}
}
