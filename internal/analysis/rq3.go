package analysis

import (
	"sort"
	"strings"
	"sync"

	"flock/internal/crawler"
	"flock/internal/parallel"
	"flock/internal/stats"
	"flock/internal/textkit"
	"flock/internal/textsim"
	"flock/internal/vclock"
)

// CrossposterSources are the §6.1 bridge client names.
var CrossposterSources = map[string]bool{
	"Mastodon Twitter Crossposter": true,
	"Moa Bridge":                   true,
}

// DailyActivity is Fig. 11: tweets and statuses per study day.
type DailyActivity struct {
	Days     []string // "Oct 01" labels
	Tweets   []int
	Statuses []int
}

// Timelines computes Fig. 11 over the crawled timelines.
func (e Engine) Timelines(ds *crawler.Dataset) *DailyActivity {
	out := &DailyActivity{
		Days:     make([]string, vclock.StudyDays),
		Tweets:   make([]int, vclock.StudyDays),
		Statuses: make([]int, vclock.StudyDays),
	}
	for d := 0; d < vclock.StudyDays; d++ {
		out.Days[d] = vclock.FormatDay(vclock.DayStart(d))
	}
	for _, id := range sortedKeys(ds.TwitterTimelines) {
		for _, p := range ds.TwitterTimelines[id].Posts {
			if d := vclock.Day(p.Time); d >= 0 && d < vclock.StudyDays {
				out.Tweets[d]++
			}
		}
	}
	for _, id := range sortedKeys(ds.MastodonTimelines) {
		for _, p := range ds.MastodonTimelines[id].Posts {
			if d := vclock.Day(p.Time); d >= 0 && d < vclock.StudyDays {
				out.Statuses[d]++
			}
		}
	}
	return out
}

// SourceCount is one Fig. 12 bar: tweets via a client, before and after
// the takeover.
type SourceCount struct {
	Name string
	Pre  int
	Post int
}

// Growth returns the pre-to-post growth (post/pre - 1); pre==0 yields
// +inf handled as a large value for sorting, reported as-is.
func (s SourceCount) Growth() float64 {
	if s.Pre == 0 {
		if s.Post == 0 {
			return 0
		}
		return float64(s.Post) // effectively unbounded
	}
	return float64(s.Post-s.Pre) / float64(s.Pre)
}

// Sources is the Fig. 12 + Fig. 13 + §6.1 result.
type Sources struct {
	// Top30 sources by total volume.
	Top30 []SourceCount
	// CrossposterGrowth per bridge (paper: +1128.95% and +1732.26%).
	CrossposterGrowth map[string]float64
	// CrossposterUserFrac: migrants using a bridge at least once
	// (paper: 5.73%).
	CrossposterUserFrac float64
	// DailyCrossposterUsers is Fig. 13: distinct bridge users per day.
	DailyCrossposterUsers []int
}

// RQ3Sources computes the tweet-source results.
func (e Engine) RQ3Sources(ds *crawler.Dataset) *Sources {
	out := &Sources{
		CrossposterGrowth:     map[string]float64{},
		DailyCrossposterUsers: make([]int, vclock.StudyDays),
	}
	ids := sortedKeys(ds.TwitterTimelines)
	if len(ids) == 0 {
		return out // Top30 stays null; timelines without posts give []
	}
	counts := map[string]*SourceCount{}
	crossUsers, usersWithTimeline := 0, 0
	// seen[d] is 1 + the index of the last user counted on day d, so a
	// bridge user counts once per day.
	var seen [vclock.StudyDays]int
	for i, userID := range ids {
		tl := ds.TwitterTimelines[userID]
		if tl.State != crawler.StateOK {
			continue
		}
		usersWithTimeline++
		crossposter := false
		for _, p := range tl.Posts {
			c := counts[p.Source]
			if c == nil {
				c = &SourceCount{Name: p.Source}
				counts[p.Source] = c
			}
			if vclock.PostTakeover(p.Time) {
				c.Post++
			} else {
				c.Pre++
			}
			if !CrossposterSources[p.Source] {
				continue
			}
			crossposter = true
			if d := vclock.Day(p.Time); d >= 0 && d < vclock.StudyDays && seen[d] != i+1 {
				seen[d] = i + 1
				out.DailyCrossposterUsers[d]++
			}
		}
		if crossposter {
			crossUsers++
		}
	}
	rows := make([]SourceCount, 0, len(counts))
	for _, c := range counts {
		rows = append(rows, *c)
	}
	sort.Slice(rows, func(i, j int) bool {
		ti, tj := rows[i].Pre+rows[i].Post, rows[j].Pre+rows[j].Post
		if ti != tj {
			return ti > tj
		}
		return rows[i].Name < rows[j].Name
	})
	if len(rows) > 30 {
		rows = rows[:30]
	}
	out.Top30 = rows
	for name := range CrossposterSources {
		if c, ok := counts[name]; ok {
			out.CrossposterGrowth[name] = c.Growth()
		}
	}
	if usersWithTimeline > 0 {
		out.CrossposterUserFrac = float64(crossUsers) / float64(usersWithTimeline)
	}
	return out
}

// Overlap is the Fig. 14 / §6.1 content-similarity result.
type Overlap struct {
	// IdenticalFrac / SimilarFrac are per-user CDFs of the fraction of
	// Mastodon statuses identical/similar to the user's tweets.
	IdenticalFrac *stats.ECDF
	SimilarFrac   *stats.ECDF
	MeanIdentical float64 // paper: 1.53%
	MeanSimilar   float64 // paper: 16.57%
	// CompletelyDifferentFrac: users whose similar-status fraction is
	// below DifferentFloor (paper: 84.45% "post completely different
	// content"). An exact-zero definition is unusable: at any similarity
	// threshold a per-status false-positive rate of even 2% would give
	// most 60-status users at least one spurious match.
	CompletelyDifferentFrac float64
	UsersCompared           int
}

// DifferentFloor is the similar-fraction below which a user counts as
// posting "completely different" content on the two platforms.
const DifferentFloor = 0.05

// OverlapOptions tunes the Fig. 14 computation.
type OverlapOptions struct {
	// Threshold is the similarity cutoff (paper: 0.7 on SBERT cosine).
	Threshold float64
	// MaxUsers caps how many users are compared (0 = all); the
	// comparison is quadratic per user.
	MaxUsers int
}

// overlapScratch is one worker's reusable state for the Fig. 14 scan:
// a user's canonical tweet texts, their embeddings and one status's
// embedding. Pooled, so the scan stops allocating once a worker has seen
// its largest timeline.
type overlapScratch struct {
	texts []string
	index textsim.Index
	query textsim.Vector
}

var overlapPool = sync.Pool{New: func() any { return new(overlapScratch) }}

// RQ3Overlap computes cross-platform content similarity: each Mastodon
// status is matched to its closest tweet by the same user, and counts as
// identical when the two canonical texts (textsim.Canonical) are equal,
// or else as similar when their cosine reaches the threshold. Texts are
// embedded in canonical form. Users fan out across workers; each user's
// embedding and scan run serially in its own slot, on pooled scratch, so
// the result does not depend on the worker count. The scan skips each
// status's zero coordinates and scores four tweets per pass, yet every
// cosine, best match and tie is exactly what a dense scan over
// textsim.Cosine gives (see the textsim package comment).
func (e Engine) RQ3Overlap(ds *crawler.Dataset, opt OverlapOptions) *Overlap {
	if opt.Threshold == 0 {
		opt.Threshold = textsim.DefaultThreshold
	}
	out := &Overlap{}

	// Eligibility pass (cheap, serial) over sorted ids, respecting the
	// MaxUsers cap exactly as the serial version did.
	var eligible []string
	for _, id := range sortedKeys(ds.MastodonTimelines) {
		if opt.MaxUsers > 0 && len(eligible) >= opt.MaxUsers {
			break
		}
		mtl := ds.MastodonTimelines[id]
		ttl := ds.TwitterTimelines[id]
		if mtl == nil || ttl == nil || mtl.State != crawler.StateOK || ttl.State != crawler.StateOK {
			continue
		}
		if len(mtl.Posts) == 0 || len(ttl.Posts) == 0 {
			continue
		}
		eligible = append(eligible, id)
	}
	out.UsersCompared = len(eligible)

	type userRow struct {
		idFrac, simFrac float64
		different       bool
	}
	slots := parallel.MapSlice(e.Workers, len(eligible), func(u int) userRow {
		mtl := ds.MastodonTimelines[eligible[u]]
		ttl := ds.TwitterTimelines[eligible[u]]
		sc := overlapPool.Get().(*overlapScratch)
		defer overlapPool.Put(sc)
		sc.texts = sc.texts[:0]
		for _, p := range ttl.Posts {
			sc.texts = append(sc.texts, textsim.Canonical(p.Text))
		}
		sc.index.Reset(sc.texts)
		identical, similar := 0, 0
		for _, sp := range mtl.Posts {
			text := textsim.Canonical(sp.Text)
			textsim.EmbedInto(&sc.query, text)
			best, sim := sc.index.BestMatch(&sc.query)
			if best < 0 {
				continue
			}
			switch {
			case text == sc.texts[best]: // textsim.Identical
				identical++
			case sim >= opt.Threshold:
				similar++
			}
		}
		n := float64(len(mtl.Posts))
		return userRow{
			idFrac:    float64(identical) / n,
			simFrac:   float64(identical+similar) / n,
			different: float64(identical+similar)/n < DifferentFloor,
		}
	})
	idFracs := make([]float64, len(slots))
	simFracs := make([]float64, len(slots))
	different := 0
	for i, r := range slots {
		idFracs[i] = r.idFrac
		simFracs[i] = r.simFrac
		if r.different {
			different++
		}
	}
	out.IdenticalFrac = stats.NewECDF(idFracs)
	out.SimilarFrac = stats.NewECDF(simFracs)
	out.MeanIdentical = stats.Mean(idFracs)
	out.MeanSimilar = stats.Mean(simFracs)
	if out.UsersCompared > 0 {
		out.CompletelyDifferentFrac = float64(different) / float64(out.UsersCompared)
	}
	return out
}

// HashtagTables is the Fig. 15 result.
type HashtagTables struct {
	Twitter  []stats.FreqCount
	Mastodon []stats.FreqCount
}

// countHashtags tallies hashtags across the id-sorted timelines,
// sharded across workers with a commutative map-addition merge;
// posts(i) yields the i-th user's timeline in id-sorted order.
func countHashtags(workers, n int, posts func(i int) []crawler.Post) map[string]int {
	counts := parallel.ReduceSharded(workers, n,
		func(lo, hi int) map[string]int {
			// Counting through pointers allocates once per distinct
			// tag: m[string(tag)] does not allocate, an assignment does.
			tally := map[string]*int{}
			var arr [64]byte
			for i := lo; i < hi; i++ {
				for _, p := range posts(i) {
					for tag, j := textkit.NextHashtag(p.Text, 0, arr[:0]); j >= 0; tag, j = textkit.NextHashtag(p.Text, j, arr[:0]) {
						if c := tally[string(tag)]; c != nil {
							*c++
						} else {
							n := 1
							tally[string(tag)] = &n
						}
					}
				}
			}
			m := make(map[string]int, len(tally))
			for h, c := range tally {
				m[h] = *c
			}
			return m
		},
		func(a, b map[string]int) map[string]int {
			for h, n := range b {
				a[h] += n
			}
			return a
		})
	if counts == nil {
		counts = map[string]int{}
	}
	return counts
}

// RQ3Hashtags extracts the top-30 hashtags per platform.
func (e Engine) RQ3Hashtags(ds *crawler.Dataset) *HashtagTables {
	twIDs := sortedKeys(ds.TwitterTimelines)
	msIDs := sortedKeys(ds.MastodonTimelines)
	tw := countHashtags(e.Workers, len(twIDs), func(i int) []crawler.Post {
		return ds.TwitterTimelines[twIDs[i]].Posts
	})
	ms := countHashtags(e.Workers, len(msIDs), func(i int) []crawler.Post {
		return ds.MastodonTimelines[msIDs[i]].Posts
	})
	return &HashtagTables{
		Twitter:  stats.TopK(tw, 30),
		Mastodon: stats.TopK(ms, 30),
	}
}

// ToxicityResult is the Fig. 16 / §6.3 result.
type ToxicityResult struct {
	// TweetToxicFrac / StatusToxicFrac are the per-user CDFs.
	TweetToxicFrac  *stats.ECDF
	StatusToxicFrac *stats.ECDF
	// Overall post-level rates (paper: 5.49% / 2.80%).
	OverallTweetToxic  float64
	OverallStatusToxic float64
	// Per-user means (paper: 4.02% / 2.07%).
	MeanUserTweetToxic  float64
	MeanUserStatusToxic float64
	// BothPlatformsFrac: users with >= 1 toxic post on each platform
	// (paper: 14.26%).
	BothPlatformsFrac float64
	ScoredTweets      int
	ScoredStatuses    int
}

// ToxicityOptions tunes the toxicity analysis.
type ToxicityOptions struct {
	// Threshold classifies a post toxic (paper: 0.5; 0.8 is the stricter
	// variant some prior work uses).
	Threshold float64
	// ScoreFn scores posts whose crawl-time Toxicity is missing (<0).
	// nil skips unscored posts. Must be safe for concurrent use — the
	// per-user scoring loop fans out across workers.
	ScoreFn func(text string) float64
}

// RQ3Toxicity computes toxicity prevalence on both platforms.
func (e Engine) RQ3Toxicity(ds *crawler.Dataset, opt ToxicityOptions) *ToxicityResult {
	if opt.Threshold == 0 {
		opt.Threshold = 0.5
	}
	out := &ToxicityResult{}

	score := func(p *crawler.Post) (float64, bool) {
		if p.Toxicity >= 0 {
			return p.Toxicity, true
		}
		if opt.ScoreFn != nil {
			return opt.ScoreFn(p.Text), true
		}
		return 0, false
	}

	ids := sortedKeys(ds.TwitterTimelines)
	type userRow struct {
		tTox, tAll, sTox, sAll int
	}
	slots := parallel.MapSlice(e.Workers, len(ids), func(i int) userRow {
		ttl := ds.TwitterTimelines[ids[i]]
		mtl := ds.MastodonTimelines[ids[i]]
		var r userRow
		if ttl != nil && ttl.State == crawler.StateOK {
			for j := range ttl.Posts {
				v, ok := score(&ttl.Posts[j])
				if !ok {
					continue
				}
				r.tAll++
				if v > opt.Threshold {
					r.tTox++
				}
			}
		}
		if mtl != nil && mtl.State == crawler.StateOK {
			for j := range mtl.Posts {
				v, ok := score(&mtl.Posts[j])
				if !ok {
					continue
				}
				r.sAll++
				if v > opt.Threshold {
					r.sTox++
				}
			}
		}
		return r
	})
	var userTweetFracs, userStatusFracs []float64
	var totalTweets, toxicTweets, totalStatuses, toxicStatuses int
	both := 0
	users := 0
	for _, r := range slots {
		totalTweets += r.tAll
		toxicTweets += r.tTox
		totalStatuses += r.sAll
		toxicStatuses += r.sTox
		if r.tAll > 0 {
			userTweetFracs = append(userTweetFracs, float64(r.tTox)/float64(r.tAll))
		}
		if r.sAll > 0 {
			userStatusFracs = append(userStatusFracs, float64(r.sTox)/float64(r.sAll))
		}
		if r.tAll > 0 || r.sAll > 0 {
			users++
			if r.tTox > 0 && r.sTox > 0 {
				both++
			}
		}
	}
	out.TweetToxicFrac = stats.NewECDF(userTweetFracs)
	out.StatusToxicFrac = stats.NewECDF(userStatusFracs)
	out.MeanUserTweetToxic = stats.Mean(userTweetFracs)
	out.MeanUserStatusToxic = stats.Mean(userStatusFracs)
	out.ScoredTweets = totalTweets
	out.ScoredStatuses = totalStatuses
	if totalTweets > 0 {
		out.OverallTweetToxic = float64(toxicTweets) / float64(totalTweets)
	}
	if totalStatuses > 0 {
		out.OverallStatusToxic = float64(toxicStatuses) / float64(totalStatuses)
	}
	if users > 0 {
		out.BothPlatformsFrac = float64(both) / float64(users)
	}
	return out
}

// CollectionSeries is Fig. 2: daily collected tweets by query class.
type CollectionSeries struct {
	Days          []string
	InstanceLinks []int
	Keywords      []int
}

// CollectionFigure computes Fig. 2 from the collection corpus.
func (e Engine) CollectionFigure(ds *crawler.Dataset) *CollectionSeries {
	out := &CollectionSeries{
		Days:          make([]string, vclock.StudyDays),
		InstanceLinks: make([]int, vclock.StudyDays),
		Keywords:      make([]int, vclock.StudyDays),
	}
	for d := 0; d < vclock.StudyDays; d++ {
		out.Days[d] = vclock.FormatDay(vclock.DayStart(d))
	}
	for i := range ds.CollectedTweets {
		ct := &ds.CollectedTweets[i]
		d := vclock.Day(ct.Time)
		if d < 0 || d >= vclock.StudyDays {
			continue
		}
		if ct.Class == crawler.ClassInstanceLink {
			out.InstanceLinks[d]++
		} else {
			out.Keywords[d]++
		}
	}
	return out
}

// ActivitySeries is Fig. 3: fediverse-wide weekly activity, summed over
// crawled instances.
type ActivitySeries struct {
	Weeks         []string
	Registrations []int
	Logins        []int
	Statuses      []int
}

// ActivityFigure aggregates the per-instance weekly activity crawl. The
// input is small (one row per instance-week), so this stays serial.
func (e Engine) ActivityFigure(ds *crawler.Dataset) *ActivitySeries {
	agg := map[string]*[3]int{}
	var weeks []string
	for _, series := range ds.Activity {
		for _, wk := range series {
			key := wk.Week.UTC().Format("2006-01-02")
			a := agg[key]
			if a == nil {
				a = &[3]int{}
				agg[key] = a
				weeks = append(weeks, key)
			}
			a[0] += wk.Registrations
			a[1] += wk.Logins
			a[2] += wk.Statuses
		}
	}
	sort.Strings(weeks)
	out := &ActivitySeries{}
	for _, wk := range weeks {
		a := agg[wk]
		out.Weeks = append(out.Weeks, wk)
		out.Registrations = append(out.Registrations, a[0])
		out.Logins = append(out.Logins, a[1])
		out.Statuses = append(out.Statuses, a[2])
	}
	return out
}

// sourceIsOfficial reports whether a client is a first-party Twitter
// client (used in the report's Fig. 12 narrative).
func sourceIsOfficial(name string) bool {
	return strings.HasPrefix(name, "Twitter ") || name == "TweetDeck"
}
