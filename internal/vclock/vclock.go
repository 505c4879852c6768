// Package vclock anchors the simulation to the paper's study window.
//
// The paper measures activity between 2022-10-01 and 2022-11-30 and keys
// several analyses to dated events (Musk's takeover on 2022-10-27, the
// layoffs on 2022-11-04, the "extremely hardcore" ultimatum on
// 2022-11-17). vclock provides those anchors, day/week bucketing in UTC,
// and NowFunc, which simulated services read instead of calling
// time.Now so that a run can be replayed on a clock of its own.
package vclock

import "time"

// Event dates from the paper, all midnight UTC.
var (
	// StudyStart is the first day of timeline collection (§3.2).
	StudyStart = time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC)
	// CollectionStart is the first day of tweet collection, "a day before
	// Musk's takeover" (§3.1).
	CollectionStart = time.Date(2022, 10, 26, 0, 0, 0, 0, time.UTC)
	// Takeover is the acquisition date (Musk closed on 2022-10-27).
	Takeover = time.Date(2022, 10, 27, 0, 0, 0, 0, time.UTC)
	// Layoffs is the day half of Twitter's staff was fired.
	Layoffs = time.Date(2022, 11, 4, 0, 0, 0, 0, time.UTC)
	// Ultimatum is the "extremely hardcore" resignation wave.
	Ultimatum = time.Date(2022, 11, 17, 0, 0, 0, 0, time.UTC)
	// CollectionEnd is the last day of tweet collection (§3.1).
	CollectionEnd = time.Date(2022, 11, 21, 0, 0, 0, 0, time.UTC)
	// StudyEnd is the last day of timeline collection (§3.2), inclusive.
	StudyEnd = time.Date(2022, 11, 30, 0, 0, 0, 0, time.UTC)
	// CrawlTime is the notional moment the crawl itself runs, shortly
	// after the study window.
	CrawlTime = time.Date(2022, 12, 15, 12, 0, 0, 0, time.UTC)
)

// StudyDays is the number of days in [StudyStart, StudyEnd].
const StudyDays = 61

// Day returns the number of whole days from StudyStart to t. It may be
// negative for times before the window.
func Day(t time.Time) int {
	return int(t.Sub(StudyStart) / (24 * time.Hour))
}

// DayStart returns midnight UTC of day d of the study window.
func DayStart(d int) time.Time {
	return StudyStart.Add(time.Duration(d) * 24 * time.Hour)
}

// Week returns the ISO-like week index of t counted from the Monday on or
// before StudyStart. Mastodon's activity endpoint reports weekly buckets;
// we anchor weeks the same way so the crawler's numbers line up.
func Week(t time.Time) int {
	anchor := weekAnchor
	return int(t.Sub(anchor) / (7 * 24 * time.Hour))
}

// WeekStart returns the start of week w (see Week).
func WeekStart(w int) time.Time {
	return weekAnchor.Add(time.Duration(w) * 7 * 24 * time.Hour)
}

// weekAnchor is the Monday on or before StudyStart (2022-09-26).
var weekAnchor = time.Date(2022, 9, 26, 0, 0, 0, 0, time.UTC)

// PostTakeover reports whether t is at or after the takeover.
func PostTakeover(t time.Time) bool {
	return !t.Before(Takeover)
}

// NowFunc is a clock-reading function. Simulated services accept a
// NowFunc instead of calling time.Now directly (the walltime analyzer in
// internal/lint enforces this), so the same service runs on wall time
// (Wall) or on any other clock without code changes.
type NowFunc func() time.Time

// Wall is the wall-clock NowFunc. It is the one sanctioned gateway to
// time.Now for simulated-service packages: services default to Wall so
// existing behavior under real time is unchanged, and tests or replays
// swap in a NowFunc of their own.
func Wall() time.Time {
	return time.Now()
}

// FormatDay renders t as the paper's figures label days (e.g. "Oct 27").
func FormatDay(t time.Time) string {
	return t.UTC().Format("Jan 02")
}
