package store

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"flock/internal/crawler"
	"flock/internal/match"
	"flock/internal/randx"
)

// syntheticDataset extends sampleDataset with tweets collected tweets
// and users users, each with a Twitter timeline of posts posts, a
// Mastodon timeline of a quarter as many, followees and follows. Words
// are drawn from a Zipf vocabulary so the JSON compresses about as well
// as a crawled dataset's.
func syntheticDataset(tweets, users, posts int) *crawler.Dataset {
	ds := sampleDataset()
	rng := randx.New(uint64(tweets*7919 + users*31 + posts))
	vocab := strings.Fields("the a to and of mastodon twitter instance migration " +
		"follow toot fediverse server bye elon moving account handle find me " +
		"over at here new home timeline post thread link bird musk decentralized " +
		"community moderation blocked join invite welcome hello everyone today")
	zipf := randx.NewZipf(len(vocab), 1.1)
	text := func() string {
		n := 4 + rng.Intn(20)
		words := make([]string, n)
		for i := range words {
			if rng.Intn(12) == 0 {
				words[i] = "#" + strconv.Itoa(rng.Intn(5000))
			} else {
				words[i] = vocab[zipf.Sample(rng)]
			}
		}
		return strings.Join(words, " ")
	}
	at := time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC)
	when := func() time.Time { return at.Add(time.Duration(rng.Intn(90*24*3600)) * time.Second) }
	domains := []string{"mastodon.social", "tiny.town", "fosstodon.org", "mstdn.jp", "hachyderm.io"}
	for i := range tweets {
		ds.CollectedTweets = append(ds.CollectedTweets, crawler.CollectedTweet{
			ID: strconv.Itoa(1e15 + rng.Intn(1e15)), AuthorID: strconv.Itoa(1e6 + rng.Intn(users+1)),
			Time: when(), Text: text(), Source: "Twitter Web App", Class: crawler.ClassKeyword,
		})
		if i%4 == 0 {
			ds.CollectedTweets[len(ds.CollectedTweets)-1].Class = crawler.ClassInstanceLink
		}
	}
	for u := range users {
		id := strconv.Itoa(1e6 + u)
		domain := domains[rng.Intn(len(domains))]
		ds.Pairs = append(ds.Pairs, crawler.AccountPair{
			TwitterID: id, TwitterUsername: "user" + id, TwitterCreatedAt: when(), TwitterFollowers: rng.Intn(5000),
			Handle: match.Handle{Username: "user" + id, Domain: domain}, MatchSource: match.SourceTweet,
			SameUsername: true, MastodonVerified: true, MastodonAccountID: strconv.Itoa(rng.Intn(1e9)),
			MastodonCreatedAt: when(), MastodonStatuses: rng.Intn(300),
		})
		tl := &crawler.TwitterTimeline{State: crawler.StateOK}
		for range posts {
			tl.Posts = append(tl.Posts, crawler.Post{ID: strconv.Itoa(1e15 + rng.Intn(1e15)), Time: when(),
				Text: text(), Source: "Twitter for iPhone", Toxicity: -1})
		}
		ds.TwitterTimelines[id] = tl
		mtl := &crawler.MastodonTimeline{State: crawler.StateOK}
		for range posts / 4 {
			mtl.Posts = append(mtl.Posts, crawler.Post{ID: strconv.Itoa(1e17 + rng.Intn(1e17)), Time: when(),
				Text: text(), Domain: domain, Toxicity: -1})
		}
		ds.MastodonTimelines[id] = mtl
		for range 1 + rng.Intn(20) {
			f := strconv.Itoa(1e6 + rng.Intn(10*users+1))
			ds.TwitterFollowees[id] = append(ds.TwitterFollowees[id], crawler.FolloweeRef{TwitterID: f, Username: "user" + f})
			ds.MastodonFollowing[id] = append(ds.MastodonFollowing[id], "@user"+f+"@"+domains[rng.Intn(len(domains))])
		}
	}
	for d, domain := range domains {
		for w := range 12 {
			ds.Activity[domain] = append(ds.Activity[domain], crawler.WeekActivity{
				Week: at.AddDate(0, 0, 7*w), Statuses: 100 * (d + w), Logins: 10 * (d + w), Registrations: d + w})
		}
	}
	return ds
}

// BenchmarkSaveLoad times Save and Load of a dataset shaped like a
// 300-migrant crawl: ~240 timelines of ~175 posts, so the Twitter
// timelines file holds most of the bytes. It loops to b.N rather than
// on b.Loop, which in Go 1.24 times the first -cpu value at the
// GOMAXPROCS left over from before.
func BenchmarkSaveLoad(b *testing.B) {
	ds := syntheticDataset(5000, 240, 175)
	dir := b.TempDir()
	if err := Save(dir, ds, false); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if err := Save(dir, ds, false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, _, err := Load(dir); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFileCheckpointSave times one mid-phase checkpoint save at
// resume_150's shape: a frame of 32 Twitter-timeline records of 150 posts
// each, appended to a file that already holds about 1 MB, the snapshot
// of a crawl part-way through the Twitter-timeline phase. Each iteration
// restores that file and loads it outside the timer.
func BenchmarkFileCheckpointSave(b *testing.B) {
	const batch = 32
	ds := syntheticDataset(3000, 160, 150)
	timelines := ds.TwitterTimelines
	ids := slices.Sorted(maps.Keys(timelines))
	ds.TwitterTimelines = map[string]*crawler.TwitterTimeline{}
	ds.MastodonTimelines = map[string]*crawler.MastodonTimeline{}
	ds.TwitterFollowees = map[string][]crawler.FolloweeRef{}
	ds.MastodonFollowing = map[string][]string{}
	ds.Activity = map[string][]crawler.WeekActivity{}
	apply := func(prog *crawler.Progress, ids []string) {
		for _, id := range ids {
			if err := prog.Apply(crawler.Record{Phase: 4, Key: id, TwitterTL: timelines[id]}); err != nil {
				b.Fatal(err)
			}
		}
	}
	prog := &crawler.Progress{Version: crawler.ProgressVersion, Phase: 3, Dataset: ds}
	apply(prog, ids[:len(ids)-batch])
	path := filepath.Join(b.TempDir(), "crawl.ckpt.gz")
	if err := NewFileCheckpoint(path).Save(prog); err != nil {
		b.Fatal(err)
	}
	base, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		if err := os.WriteFile(path, base, 0o644); err != nil {
			b.Fatal(err)
		}
		ck := NewFileCheckpoint(path)
		prog, err := ck.Load()
		if err != nil {
			b.Fatal(err)
		}
		prog.StartJournal()
		apply(prog, ids[len(ids)-batch:])
		b.StartTimer()
		if err := ck.Save(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(base))/1e6, "base_MB")
}
