package analysis

import (
	"time"

	"flock/internal/crawler"
	"flock/internal/stats"
	"flock/internal/vclock"
)

// Retention implements the paper's stated future work (§8): "whether
// migrating users retain their Mastodon accounts or return to Twitter".
// Within the study window we classify each migrant by where they were
// still active during the final stretch:
//
//   - Retained: posted on Mastodon during the last RetentionWindow days;
//   - Returned: stopped posting on Mastodon before that but kept
//     tweeting during it (back on the bird);
//   - Lapsed: active on neither platform at the end of the window;
//   - Silent: never posted a status at all (excluded from the rates).
type RetentionResult struct {
	RetainedFrac float64
	ReturnedFrac float64
	LapsedFrac   float64
	Classified   int
	// DaysActive is the per-user CDF of distinct days with at least one
	// status, a simple engagement depth measure.
	DaysActive *stats.ECDF
	// DailyActiveUsers counts migrants posting on Mastodon per study
	// day (the retention curve's raw series).
	DailyActiveUsers []int
}

// RetentionWindow is the end-of-study activity window, in days.
const RetentionWindow = 14

// RQ4Retention computes the retention extension over crawled timelines.
func (e Engine) RQ4Retention(ds *crawler.Dataset) *RetentionResult {
	out := &RetentionResult{DailyActiveUsers: make([]int, vclock.StudyDays)}
	cutoff := vclock.StudyEnd.Add(-time.Duration(RetentionWindow-1) * 24 * time.Hour)

	var retained, returned, lapsed int
	var daysActive []float64
	// seen[d] is 1 + the index of the last user counted on day d, so a
	// user counts once per day.
	var seen [vclock.StudyDays]int
	for i, id := range sortedKeys(ds.MastodonTimelines) {
		mtl := ds.MastodonTimelines[id]
		if mtl.State != crawler.StateOK || len(mtl.Posts) == 0 {
			continue // silent: excluded from the rates
		}
		days := 0
		mastodonLate := false
		for _, p := range mtl.Posts {
			if d := vclock.Day(p.Time); d >= 0 && d < vclock.StudyDays && seen[d] != i+1 {
				seen[d] = i + 1
				days++
				out.DailyActiveUsers[d]++
			}
			if !p.Time.Before(cutoff) {
				mastodonLate = true
			}
		}
		daysActive = append(daysActive, float64(days))
		twitterLate := false
		if ttl := ds.TwitterTimelines[id]; ttl != nil && ttl.State == crawler.StateOK {
			for _, p := range ttl.Posts {
				if !p.Time.Before(cutoff) {
					twitterLate = true
					break
				}
			}
		}
		switch {
		case mastodonLate:
			retained++
		case twitterLate:
			returned++
		default:
			lapsed++
		}
	}
	out.Classified = retained + returned + lapsed
	if out.Classified > 0 {
		n := float64(out.Classified)
		out.RetainedFrac = float64(retained) / n
		out.ReturnedFrac = float64(returned) / n
		out.LapsedFrac = float64(lapsed) / n
	}
	out.DaysActive = stats.NewECDF(daysActive)
	return out
}
