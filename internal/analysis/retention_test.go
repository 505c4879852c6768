package analysis

import (
	"math"
	"testing"
	"time"

	"flock/internal/crawler"
	"flock/internal/vclock"
)

func TestRQ4Retention(t *testing.T) {
	ds := crawler.NewDataset()
	early := vclock.StudyStart.Add(5 * 24 * time.Hour)
	late := vclock.StudyEnd.Add(-2 * 24 * time.Hour)

	// u0: retained — statuses through the end.
	mkTimelines(ds, "u0",
		[]crawler.Post{{ID: "t0", Time: early, Text: "x", Toxicity: -1}},
		[]crawler.Post{
			{ID: "s0", Time: early, Text: "a", Toxicity: -1},
			{ID: "s1", Time: late, Text: "b", Toxicity: -1},
		})
	// u1: returned — stopped on Mastodon, still tweeting late.
	mkTimelines(ds, "u1",
		[]crawler.Post{{ID: "t1", Time: late, Text: "y", Toxicity: -1}},
		[]crawler.Post{{ID: "s2", Time: early, Text: "c", Toxicity: -1}})
	// u2: lapsed — quiet on both at the end.
	mkTimelines(ds, "u2",
		[]crawler.Post{{ID: "t2", Time: early, Text: "z", Toxicity: -1}},
		[]crawler.Post{{ID: "s3", Time: early, Text: "d", Toxicity: -1}})
	// u3: silent on Mastodon — excluded entirely.
	ds.TwitterTimelines["u3"] = &crawler.TwitterTimeline{State: crawler.StateOK}
	ds.MastodonTimelines["u3"] = &crawler.MastodonTimeline{State: crawler.StateNoStatuses}

	r := Engine{}.RQ4Retention(ds)
	if r.Classified != 3 {
		t.Fatalf("classified %d", r.Classified)
	}
	third := 1.0 / 3
	if math.Abs(r.RetainedFrac-third) > 1e-9 ||
		math.Abs(r.ReturnedFrac-third) > 1e-9 ||
		math.Abs(r.LapsedFrac-third) > 1e-9 {
		t.Fatalf("fracs %v/%v/%v", r.RetainedFrac, r.ReturnedFrac, r.LapsedFrac)
	}
	if r.DaysActive.N() != 3 {
		t.Fatalf("days-active samples %d", r.DaysActive.N())
	}
	// u0 posted on 2 distinct days; the max of the CDF reflects it.
	if got := r.DaysActive.Quantile(1); got != 2 {
		t.Fatalf("max days active %v", got)
	}
	// Daily series: day 5 has 3 distinct active users.
	if r.DailyActiveUsers[5] != 3 {
		t.Fatalf("day-5 active %d", r.DailyActiveUsers[5])
	}
}

func TestRQ4RetentionEmpty(t *testing.T) {
	r := Engine{}.RQ4Retention(crawler.NewDataset())
	if r.Classified != 0 || r.RetainedFrac != 0 {
		t.Fatal("empty dataset retention")
	}
}
