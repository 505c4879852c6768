// Package report renders every figure and table of the paper as text:
// series as aligned columns with spark bars, CDFs as fixed-quantile
// tables, and the headline statistics as a paper-vs-measured comparison.
// The benchmark harness and the cmd tools print these, so a run of the
// reproduction regenerates the evaluation section in readable form.
package report

import (
	"fmt"
	"sort"
	"strings"

	"flock/internal/analysis"
	"flock/internal/core"
	"flock/internal/stats"
	"flock/internal/trendsvc"
	"flock/internal/vclock"
)

// bar renders a proportional bar of max width w.
func bar(v, max float64, w int) string {
	if max <= 0 || v < 0 {
		return ""
	}
	n := int(v / max * float64(w))
	if n > w {
		n = w
	}
	return strings.Repeat("█", n)
}

// Fig1Trends renders Fig. 1: search interest series.
func Fig1Trends() string {
	var b strings.Builder
	b.WriteString("Figure 1: Google-Trends-style search interest (0-100)\n")
	for _, term := range trendsvc.Terms() {
		pts := trendsvc.Series(term)
		b.WriteString(fmt.Sprintf("\n  %q\n", term))
		for i := 0; i < len(pts); i += 4 {
			p := pts[i]
			b.WriteString(fmt.Sprintf("  %s  %3d %s\n", p.Date, p.Interest, bar(float64(p.Interest), 100, 40)))
		}
	}
	return b.String()
}

// Fig2Collection renders the collected-tweets time series.
func Fig2Collection(c *analysis.CollectionSeries) string {
	var b strings.Builder
	b.WriteString("Figure 2: collected tweets per day (instance links vs keywords)\n")
	max := 0.0
	for i := range c.Days {
		if v := float64(c.InstanceLinks[i] + c.Keywords[i]); v > max {
			max = v
		}
	}
	for i := range c.Days {
		total := c.InstanceLinks[i] + c.Keywords[i]
		if total == 0 && i%2 == 1 {
			continue
		}
		b.WriteString(fmt.Sprintf("  %s  links=%5d  keywords=%6d %s\n",
			c.Days[i], c.InstanceLinks[i], c.Keywords[i], bar(float64(total), max, 36)))
	}
	return b.String()
}

// Fig3Activity renders the weekly fediverse activity aggregate.
func Fig3Activity(a *analysis.ActivitySeries) string {
	var b strings.Builder
	b.WriteString("Figure 3: weekly activity on crawled instances\n")
	b.WriteString("  week        registrations   logins  statuses\n")
	for i := range a.Weeks {
		b.WriteString(fmt.Sprintf("  %s  %13d %8d %9d\n",
			a.Weeks[i], a.Registrations[i], a.Logins[i], a.Statuses[i]))
	}
	return b.String()
}

// Fig4TopInstances renders the top-30 instance histogram.
func Fig4TopInstances(c *analysis.Centralization) string {
	var b strings.Builder
	b.WriteString("Figure 4: top instances by migrated users (account created before/after acquisition)\n")
	max := 0.0
	for _, row := range c.TopInstances {
		if float64(row.Total()) > max {
			max = float64(row.Total())
		}
	}
	for _, row := range c.TopInstances {
		b.WriteString(fmt.Sprintf("  %-34s %6d (pre %4d / post %5d) %s\n",
			row.Domain, row.Total(), row.Pre, row.Post, bar(float64(row.Total()), max, 30)))
	}
	return b.String()
}

// Fig5TopShare renders the centralization curve.
func Fig5TopShare(c *analysis.Centralization) string {
	var b strings.Builder
	b.WriteString("Figure 5: % of migrated users on the top % of instances (by size)\n")
	for _, p := range c.TopShareCurve {
		pct := int(p.X * 100)
		if pct%5 != 0 {
			continue
		}
		b.WriteString(fmt.Sprintf("  top %3d%% of instances -> %6.2f%% of users %s\n",
			pct, p.Y*100, bar(p.Y, 1, 40)))
	}
	b.WriteString(fmt.Sprintf("  headline: top 25%% hold %s of users (paper: 96%%)\n", stats.Percent(c.Top25Share)))
	return b.String()
}

// cdfTable renders an ECDF at fixed quantiles.
func cdfTable(label string, e *stats.ECDF) string {
	if e == nil || e.N() == 0 {
		return fmt.Sprintf("  %-22s (no data)\n", label)
	}
	qs := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99}
	var cells []string
	for _, q := range qs {
		cells = append(cells, fmt.Sprintf("p%02.0f=%.3g", q*100, e.Quantile(q)))
	}
	return fmt.Sprintf("  %-22s n=%-6d %s\n", label, e.N(), strings.Join(cells, "  "))
}

// Fig6SizeQuantiles renders the instance-size bucket CDFs.
func Fig6SizeQuantiles(c *analysis.Centralization) string {
	var b strings.Builder
	b.WriteString("Figure 6: users on different-sized instances (post-acquisition, 30-day-old cohort)\n")
	for _, bk := range c.Buckets {
		b.WriteString(fmt.Sprintf("  bucket %-14s instances=%-5d users=%d\n", bk.Label, bk.Instances, bk.Users))
		b.WriteString(cdfTable("    followers", bk.Followers))
		b.WriteString(cdfTable("    followees", bk.Followees))
		b.WriteString(cdfTable("    statuses", bk.Statuses))
	}
	sv := c.SingleVsLargest
	b.WriteString(fmt.Sprintf("  single-user vs largest: followers %+.1f%% followees %+.1f%% statuses %+.1f%%\n",
		sv.FollowerBoost*100, sv.FolloweeBoost*100, sv.StatusBoost*100))
	b.WriteString("  (paper: +64.88% followers, +99.04% followees, +121.14% statuses)\n")
	return b.String()
}

// Fig7Networks renders the platform network-size CDFs.
func Fig7Networks(n *analysis.NetworkSizes) string {
	var b strings.Builder
	b.WriteString("Figure 7: follower/followee counts of migrated users\n")
	b.WriteString(cdfTable("twitter followers", n.TwitterFollowers))
	b.WriteString(cdfTable("twitter followees", n.TwitterFollowees))
	b.WriteString(cdfTable("mastodon followers", n.MastodonFollowers))
	b.WriteString(cdfTable("mastodon followees", n.MastodonFollowees))
	b.WriteString(fmt.Sprintf("  medians: twitter %g/%g, mastodon %g/%g (paper: 744/787 vs 38/48)\n",
		n.MedianTwitterFollowers, n.MedianTwitterFollowees,
		n.MedianMastodonFollowers, n.MedianMastodonFollowees))
	b.WriteString(fmt.Sprintf("  no followers: twitter %s, mastodon %s (paper: 0.11%%, 6.01%%)\n",
		stats.Percent(n.NoTwitterFollowersFrac), stats.Percent(n.NoMastodonFollowersFrac)))
	return b.String()
}

// Fig8Contagion renders the followee-migration CDFs.
func Fig8Contagion(c *analysis.Contagion) string {
	var b strings.Builder
	b.WriteString("Figure 8: fraction of each user's Twitter followees that...\n")
	b.WriteString(cdfTable("migrated", c.FracMigrated))
	b.WriteString(cdfTable("migrated before user", c.FracBefore))
	b.WriteString(cdfTable("chose same instance", c.FracSameInstance))
	b.WriteString(fmt.Sprintf("  means: migrated %s (paper 5.99%%), before %s (45.76%%), same instance %s (14.72%%)\n",
		stats.Percent(c.MeanFracMigrated), stats.Percent(c.MeanFracBefore), stats.Percent(c.MeanFracSameInstance)))
	b.WriteString(fmt.Sprintf("  none migrated: %s (paper 3.94%%); user first: %s (4.98%%); user last: %s (4.58%%)\n",
		stats.Percent(c.NoneMigratedFrac), stats.Percent(c.UserFirstFrac), stats.Percent(c.UserLastFrac)))
	b.WriteString(fmt.Sprintf("  mastodon.social share of co-location: %s (paper 30.68%%)\n",
		stats.Percent(c.MastodonSocialShareOfSame)))
	return b.String()
}

// Fig9Chord renders the switching chord as its top flows.
func Fig9Chord(s *analysis.Switching) string {
	var b strings.Builder
	b.WriteString("Figure 9: instance switches (first -> second)\n")
	flows := s.Chord.TopFlows(20)
	if len(flows) == 0 {
		b.WriteString("  (no switches observed)\n")
		return b.String()
	}
	for _, f := range flows {
		b.WriteString(fmt.Sprintf("  %-30s -> %-30s %4d\n", f.From, f.To, f.Count))
	}
	b.WriteString(fmt.Sprintf("  switchers: %s of users (paper 4.09%%), %s post-takeover (97.22%%), %s leave flagship/general servers\n",
		stats.Percent(s.SwitcherFrac), stats.Percent(s.PostTakeoverFrac), stats.Percent(s.FlagshipToTopicalFrac)))
	return b.String()
}

// Fig10SwitchInfluence renders the switch ego-network CDFs.
func Fig10SwitchInfluence(s *analysis.Switching) string {
	var b strings.Builder
	b.WriteString("Figure 10: switchers' followees at first vs second instance\n")
	b.WriteString(cdfTable("joined first instance", s.FracFirst))
	b.WriteString(cdfTable("joined second instance", s.FracSecond))
	b.WriteString(cdfTable("reached second first", s.FracSecondBefore))
	b.WriteString(fmt.Sprintf("  means: first %s (paper 11.4%%), second %s (46.98%%), before-user %s (77.42%%)\n",
		stats.Percent(s.MeanFracFirst), stats.Percent(s.MeanFracSecond), stats.Percent(s.MeanFracSecondBefore)))
	return b.String()
}

// Fig11Daily renders the daily cross-platform activity.
func Fig11Daily(d *analysis.DailyActivity) string {
	var b strings.Builder
	b.WriteString("Figure 11: daily posts by migrated users\n")
	max := 0.0
	for i := range d.Days {
		if v := float64(d.Tweets[i]); v > max {
			max = v
		}
	}
	for i := range d.Days {
		if i%2 == 1 {
			continue
		}
		b.WriteString(fmt.Sprintf("  %s  tweets=%6d statuses=%6d %s\n",
			d.Days[i], d.Tweets[i], d.Statuses[i], bar(float64(d.Statuses[i]), max, 30)))
	}
	return b.String()
}

// Fig12Sources renders the tweet-source table.
func Fig12Sources(s *analysis.Sources) string {
	var b strings.Builder
	b.WriteString("Figure 12: top tweet sources before/after takeover\n")
	for _, row := range s.Top30 {
		marker := ""
		if analysis.CrossposterSources[row.Name] {
			marker = "  <- cross-poster"
		}
		b.WriteString(fmt.Sprintf("  %-32s pre=%7d post=%8d (%+.0f%%)%s\n",
			row.Name, row.Pre, row.Post, row.Growth()*100, marker))
	}
	names := make([]string, 0, len(s.CrossposterGrowth))
	for name := range s.CrossposterGrowth {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString(fmt.Sprintf("  growth %-32s %+.0f%% (paper: ~+1129%% and ~+1732%%)\n", name, s.CrossposterGrowth[name]*100))
	}
	return b.String()
}

// Fig13Crossposters renders the daily bridge-user series.
func Fig13Crossposters(s *analysis.Sources) string {
	var b strings.Builder
	b.WriteString("Figure 13: daily users of cross-posting tools\n")
	max := 0.0
	for _, n := range s.DailyCrossposterUsers {
		if float64(n) > max {
			max = float64(n)
		}
	}
	for d, n := range s.DailyCrossposterUsers {
		if d%2 == 1 {
			continue
		}
		b.WriteString(fmt.Sprintf("  %s  %5d %s\n", vclock.FormatDay(vclock.DayStart(d)), n, bar(float64(n), max, 30)))
	}
	b.WriteString(fmt.Sprintf("  bridge users: %s of migrants (paper 5.73%%)\n", stats.Percent(s.CrossposterUserFrac)))
	return b.String()
}

// Fig14Overlap renders the content-similarity CDFs.
func Fig14Overlap(o *analysis.Overlap) string {
	var b strings.Builder
	b.WriteString("Figure 14: fraction of each user's statuses identical/similar to their tweets\n")
	b.WriteString(cdfTable("identical", o.IdenticalFrac))
	b.WriteString(cdfTable("similar (cos>=0.7)", o.SimilarFrac))
	b.WriteString(fmt.Sprintf("  means: identical %s (paper 1.53%%), similar %s (16.57%%)\n",
		stats.Percent(o.MeanIdentical), stats.Percent(o.MeanSimilar)))
	b.WriteString(fmt.Sprintf("  completely different (<%s similar): %s of users (paper 84.45%%)\n",
		stats.Percent(analysis.DifferentFloor), stats.Percent(o.CompletelyDifferentFrac)))
	return b.String()
}

// Fig15Hashtags renders the side-by-side hashtag tables.
func Fig15Hashtags(h *analysis.HashtagTables) string {
	var b strings.Builder
	b.WriteString("Figure 15: top hashtags on each platform\n")
	b.WriteString(fmt.Sprintf("  %-4s %-28s %-10s %-28s %s\n", "rank", "twitter", "count", "mastodon", "count"))
	n := len(h.Twitter)
	if len(h.Mastodon) > n {
		n = len(h.Mastodon)
	}
	for i := 0; i < n && i < 30; i++ {
		tw, twc, ms, msc := "", "", "", ""
		if i < len(h.Twitter) {
			tw, twc = h.Twitter[i].Key, fmt.Sprint(h.Twitter[i].Count)
		}
		if i < len(h.Mastodon) {
			ms, msc = h.Mastodon[i].Key, fmt.Sprint(h.Mastodon[i].Count)
		}
		b.WriteString(fmt.Sprintf("  %-4d %-28s %-10s %-28s %s\n", i+1, tw, twc, ms, msc))
	}
	return b.String()
}

// Fig16Toxicity renders the toxicity CDFs and rates.
func Fig16Toxicity(x *analysis.ToxicityResult) string {
	var b strings.Builder
	b.WriteString("Figure 16: per-user toxic post fractions\n")
	b.WriteString(cdfTable("twitter", x.TweetToxicFrac))
	b.WriteString(cdfTable("mastodon", x.StatusToxicFrac))
	b.WriteString(fmt.Sprintf("  overall: %s of tweets toxic (paper 5.49%%), %s of statuses (2.80%%)\n",
		stats.Percent(x.OverallTweetToxic), stats.Percent(x.OverallStatusToxic)))
	b.WriteString(fmt.Sprintf("  per-user means: %s vs %s (paper 4.02%% vs 2.07%%)\n",
		stats.Percent(x.MeanUserTweetToxic), stats.Percent(x.MeanUserStatusToxic)))
	b.WriteString(fmt.Sprintf("  toxic on both platforms: %s of users (paper 14.26%%)\n",
		stats.Percent(x.BothPlatformsFrac)))
	return b.String()
}

// Retention renders the §8 future-work extension.
func Retention(r *analysis.RetentionResult) string {
	var b strings.Builder
	b.WriteString("Extension (paper §8 future work): retention at end of study window\n")
	b.WriteString(fmt.Sprintf("  classified users: %d (active Mastodon accounts)\n", r.Classified))
	b.WriteString(fmt.Sprintf("  retained on Mastodon (posted in last %d days): %s\n",
		analysis.RetentionWindow, stats.Percent(r.RetainedFrac)))
	b.WriteString(fmt.Sprintf("  returned to Twitter only: %s\n", stats.Percent(r.ReturnedFrac)))
	b.WriteString(fmt.Sprintf("  lapsed on both: %s\n", stats.Percent(r.LapsedFrac)))
	b.WriteString(cdfTable("days active on mastodon", r.DaysActive))
	return b.String()
}

// Row is one line of the paper-vs-measured summary.
type Row struct {
	Name     string
	Paper    float64
	Measured float64
	// Percentage indicates the values print as percentages.
	Percentage bool
}

// SummaryRows extracts the headline paper-vs-measured comparisons.
func SummaryRows(res *core.Result) []Row {
	pct := func(name string, paper, measured float64) Row {
		return Row{Name: name, Paper: paper, Measured: measured, Percentage: true}
	}
	cov := res.Coverage
	twOK := 0.0
	msOK := 0.0
	down := 0.0
	if cov.Pairs > 0 {
		twOK = float64(cov.TwitterOK) / float64(cov.Pairs)
		msOK = float64(cov.MastodonOK) / float64(cov.Pairs)
		down = float64(cov.MastodonDown) / float64(cov.Pairs)
	}
	return []Row{
		pct("same username (§3.1)", 0.72, res.RQ1.SameUsernameFrac),
		pct("verified migrants (§3.1)", 0.04, res.RQ1.VerifiedFrac),
		pct("accounts pre-takeover (§4)", 0.21, res.RQ1.PreTakeoverAccountFrac),
		pct("twitter timeline coverage (§3.2)", 0.9488, twOK),
		pct("mastodon timeline coverage (§3.2)", 0.7922, msOK),
		pct("instance down (§3.2)", 0.1158, down),
		pct("users on top-25% instances (Fig 5)", 0.96, res.RQ1.Top25Share),
		pct("single-user instances (§4)", 0.1316, res.RQ1.SingleUserInstanceFrac),
		pct("followees migrated, mean (Fig 8)", 0.0599, res.Contagion.MeanFracMigrated),
		pct("followees before user (§5.2)", 0.4576, res.Contagion.MeanFracBefore),
		pct("followees same instance (§5.2)", 0.1472, res.Contagion.MeanFracSameInstance),
		pct("co-location on mastodon.social", 0.3068, res.Contagion.MastodonSocialShareOfSame),
		pct("instance switchers (§5.3)", 0.0409, res.Switching.SwitcherFrac),
		pct("switches post-takeover (§5.3)", 0.9722, res.Switching.PostTakeoverFrac),
		pct("switchers' followees at 2nd instance", 0.4698, res.Switching.MeanFracSecond),
		pct("followees at 2nd before user", 0.7742, res.Switching.MeanFracSecondBefore),
		pct("identical statuses, mean (§6.1)", 0.0153, res.Overlap.MeanIdentical),
		pct("similar statuses, mean (§6.1)", 0.1657, res.Overlap.MeanSimilar),
		pct("completely different users (§6.1)", 0.8445, res.Overlap.CompletelyDifferentFrac),
		pct("cross-poster users (§6.1)", 0.0573, res.Sources.CrossposterUserFrac),
		pct("toxic tweets (§6.3)", 0.0549, res.Toxicity.OverallTweetToxic),
		pct("toxic statuses (§6.3)", 0.028, res.Toxicity.OverallStatusToxic),
		pct("mean user tweet toxicity (§6.3)", 0.0402, res.Toxicity.MeanUserTweetToxic),
		pct("mean user status toxicity (§6.3)", 0.0207, res.Toxicity.MeanUserStatusToxic),
		pct("toxic on both platforms (§6.3)", 0.1426, res.Toxicity.BothPlatformsFrac),
	}
}

// Summary renders the paper-vs-measured table.
func Summary(res *core.Result) string {
	var b strings.Builder
	b.WriteString("Paper vs measured (this run)\n")
	b.WriteString(fmt.Sprintf("  pairs=%d, instances indexed=%d receiving=%d, followee sample=%d users / %d edges\n",
		res.Coverage.Pairs, res.Coverage.InstancesIndexed, res.Coverage.InstancesReceived,
		res.Coverage.FolloweesSampled, res.Coverage.FolloweeEdges))
	b.WriteString(fmt.Sprintf("  %-42s %10s %10s\n", "statistic", "paper", "measured"))
	for _, row := range SummaryRows(res) {
		if row.Percentage {
			b.WriteString(fmt.Sprintf("  %-42s %9.2f%% %9.2f%%\n", row.Name, row.Paper*100, row.Measured*100))
		} else {
			b.WriteString(fmt.Sprintf("  %-42s %10.3g %10.3g\n", row.Name, row.Paper, row.Measured))
		}
	}
	return b.String()
}

// Figures is the number of the paper's figures; Figure renders them as
// numbers 1 to Figures.
const Figures = len(figures) - 1

// figures renders the paper's figures, indexed by figure number (1-16).
var figures = [...]func(*core.Result) string{
	1:  func(*core.Result) string { return Fig1Trends() },
	2:  func(r *core.Result) string { return Fig2Collection(r.Collection) },
	3:  func(r *core.Result) string { return Fig3Activity(r.Activity) },
	4:  func(r *core.Result) string { return Fig4TopInstances(r.RQ1) },
	5:  func(r *core.Result) string { return Fig5TopShare(r.RQ1) },
	6:  func(r *core.Result) string { return Fig6SizeQuantiles(r.RQ1) },
	7:  func(r *core.Result) string { return Fig7Networks(r.Networks) },
	8:  func(r *core.Result) string { return Fig8Contagion(r.Contagion) },
	9:  func(r *core.Result) string { return Fig9Chord(r.Switching) },
	10: func(r *core.Result) string { return Fig10SwitchInfluence(r.Switching) },
	11: func(r *core.Result) string { return Fig11Daily(r.Daily) },
	12: func(r *core.Result) string { return Fig12Sources(r.Sources) },
	13: func(r *core.Result) string { return Fig13Crossposters(r.Sources) },
	14: func(r *core.Result) string { return Fig14Overlap(r.Overlap) },
	15: func(r *core.Result) string { return Fig15Hashtags(r.Hashtags) },
	16: func(r *core.Result) string { return Fig16Toxicity(r.Toxicity) },
}

// All renders every figure plus the summary.
func All(res *core.Result) string {
	var sections []string
	for _, fig := range figures[1:] {
		sections = append(sections, fig(res))
	}
	sections = append(sections, Retention(res.Retention), Summary(res))
	return strings.Join(sections, "\n")
}

// Figure renders one numbered figure (1-16). Unknown numbers return "".
func Figure(res *core.Result, n int) string {
	if n < 1 || n >= len(figures) {
		return ""
	}
	return figures[n](res)
}
