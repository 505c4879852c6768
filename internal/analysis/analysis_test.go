package analysis

import (
	"fmt"
	"math"
	"testing"
	"time"

	"flock/internal/crawler"
	"flock/internal/match"
	"flock/internal/vclock"
)

// mkPair builds a verified pair on domain with the given join time.
func mkPair(id int, domain string, joined time.Time) crawler.AccountPair {
	return crawler.AccountPair{
		TwitterID:         fmt.Sprintf("u%d", id),
		TwitterUsername:   fmt.Sprintf("user%d", id),
		Handle:            match.Handle{Username: fmt.Sprintf("user%d", id), Domain: domain},
		MastodonVerified:  true,
		MastodonAccountID: fmt.Sprintf("m%d", id),
		MastodonCreatedAt: joined,
	}
}

func TestRQ1Basics(t *testing.T) {
	ds := crawler.NewDataset()
	pre := vclock.Takeover.Add(-30 * 24 * time.Hour)
	post := vclock.Takeover.Add(5 * 24 * time.Hour)
	// 6 users on big.example, 1 on tiny.example (single-user), 1 pre.
	for i := 0; i < 6; i++ {
		p := mkPair(i, "big.example", post)
		if i == 0 {
			p.MastodonCreatedAt = pre
		}
		if i == 1 {
			p.Verified = true
		}
		if i < 4 {
			p.SameUsername = true
		}
		ds.Pairs = append(ds.Pairs, p)
	}
	ds.Pairs = append(ds.Pairs, mkPair(6, "tiny.example", post))
	ds.Instances = []crawler.IndexedInstance{
		{Name: "big.example", Users: 5000},
		{Name: "tiny.example", Users: 1},
		{Name: "empty.example", Users: 800},
		{Name: "alsoempty.example", Users: 2},
	}
	c := Engine{}.RQ1(ds)
	if c.InstancesReceiving != 2 {
		t.Fatalf("receiving = %d", c.InstancesReceiving)
	}
	if math.Abs(c.PreTakeoverAccountFrac-1.0/7) > 1e-9 {
		t.Fatalf("pre-takeover frac %v", c.PreTakeoverAccountFrac)
	}
	if math.Abs(c.VerifiedFrac-1.0/7) > 1e-9 {
		t.Fatalf("verified %v", c.VerifiedFrac)
	}
	if math.Abs(c.SameUsernameFrac-4.0/7) > 1e-9 {
		t.Fatalf("same username %v", c.SameUsernameFrac)
	}
	if math.Abs(c.SingleUserInstanceFrac-0.5) > 1e-9 {
		t.Fatalf("single-user frac %v", c.SingleUserInstanceFrac)
	}
	if c.TopInstances[0].Domain != "big.example" || c.TopInstances[0].Post != 5 || c.TopInstances[0].Pre != 1 {
		t.Fatalf("top instance %+v", c.TopInstances[0])
	}
	// Top 25% of 4 indexed instances = big.example alone = 6/7 users.
	if math.Abs(c.Top25Share-6.0/7) > 1e-9 {
		t.Fatalf("top25 %v", c.Top25Share)
	}
}

func TestRQ1EmptyDataset(t *testing.T) {
	c := Engine{}.RQ1(crawler.NewDataset())
	if c.InstancesReceiving != 0 || len(c.TopInstances) != 0 {
		t.Fatal("empty dataset should produce empty result")
	}
}

func TestSocialNetworkSizes(t *testing.T) {
	ds := crawler.NewDataset()
	joined := vclock.Takeover.Add(24 * time.Hour)
	for i := 0; i < 4; i++ {
		p := mkPair(i, "x.example", joined)
		p.TwitterFollowers = 100 * (i + 1)
		p.TwitterFollowing = 50 * (i + 1)
		p.MastodonFollowers = 5 * i // first user has zero
		p.MastodonFollowing = 3 * (i + 1)
		ds.Pairs = append(ds.Pairs, p)
	}
	n := Engine{}.SocialNetworkSizes(ds)
	if n.MedianTwitterFollowers != 200 {
		t.Fatalf("median tw followers %v", n.MedianTwitterFollowers)
	}
	if n.NoMastodonFollowersFrac != 0.25 {
		t.Fatalf("no-mastodon-followers %v", n.NoMastodonFollowersFrac)
	}
	if n.NoTwitterFollowersFrac != 0 {
		t.Fatalf("no-twitter-followers %v", n.NoTwitterFollowersFrac)
	}
}

func TestRQ2Contagion(t *testing.T) {
	ds := crawler.NewDataset()
	day := func(d int) time.Time { return vclock.Takeover.Add(time.Duration(d) * 24 * time.Hour) }
	// ego migrated day 5; followees: f1 migrated day 2 same instance,
	// f2 migrated day 8 other instance, f3 never migrated.
	ego := mkPair(0, "home.example", day(5))
	f1 := mkPair(1, "home.example", day(2))
	f2 := mkPair(2, "away.example", day(8))
	ds.Pairs = append(ds.Pairs, ego, f1, f2)
	ds.TwitterFollowees["u0"] = []crawler.FolloweeRef{
		{TwitterID: "u1", Username: "user1"},
		{TwitterID: "u2", Username: "user2"},
		{TwitterID: "u99", Username: "stayer"},
	}
	c := Engine{}.RQ2Contagion(ds)
	if c.SampleSize != 1 {
		t.Fatalf("sample size %d", c.SampleSize)
	}
	if math.Abs(c.MeanFracMigrated-2.0/3) > 1e-9 {
		t.Fatalf("migrated frac %v", c.MeanFracMigrated)
	}
	if math.Abs(c.MeanFracBefore-0.5) > 1e-9 {
		t.Fatalf("before frac %v", c.MeanFracBefore)
	}
	if math.Abs(c.MeanFracSameInstance-0.5) > 1e-9 {
		t.Fatalf("same-instance frac %v", c.MeanFracSameInstance)
	}
	if c.UserFirstFrac != 0 || c.UserLastFrac != 0 {
		t.Fatalf("first/last %v/%v", c.UserFirstFrac, c.UserLastFrac)
	}
}

func TestRQ2ContagionFirstMover(t *testing.T) {
	ds := crawler.NewDataset()
	day := func(d int) time.Time { return vclock.Takeover.Add(time.Duration(d) * 24 * time.Hour) }
	ego := mkPair(0, "a.example", day(1))
	late := mkPair(1, "a.example", day(9))
	ds.Pairs = append(ds.Pairs, ego, late)
	ds.TwitterFollowees["u0"] = []crawler.FolloweeRef{{TwitterID: "u1", Username: "user1"}}
	c := Engine{}.RQ2Contagion(ds)
	if c.UserFirstFrac != 1 {
		t.Fatalf("first mover not detected: %v", c.UserFirstFrac)
	}
}

func TestRQ2Switching(t *testing.T) {
	ds := crawler.NewDataset()
	day := func(d int) time.Time { return vclock.Takeover.Add(time.Duration(d) * 24 * time.Hour) }
	// Switcher: first flagship.example -> second topic.example at day 10.
	sw := mkPair(0, "flagship.example", day(1))
	sw.Moved = &crawler.MovedRecord{
		Handle:    match.Handle{Username: "user0", Domain: "topic.example"},
		AccountID: "m0b",
		MovedAt:   day(10),
	}
	// Followees: f1 on topic.example since day 3 (before switch), f2 on
	// flagship.example, f3 not migrated.
	f1 := mkPair(1, "topic.example", day(3))
	f2 := mkPair(2, "flagship.example", day(4))
	// Extra pairs to make flagship.example a "big" domain.
	p3 := mkPair(3, "flagship.example", day(2))
	p4 := mkPair(4, "flagship.example", day(2))
	ds.Pairs = append(ds.Pairs, sw, f1, f2, p3, p4)
	ds.TwitterFollowees["u0"] = []crawler.FolloweeRef{
		{TwitterID: "u1", Username: "user1"},
		{TwitterID: "u2", Username: "user2"},
		{TwitterID: "u99", Username: "stayer"},
	}
	s := Engine{}.RQ2Switching(ds)
	if s.Switchers != 1 || math.Abs(s.SwitcherFrac-0.2) > 1e-9 {
		t.Fatalf("switchers %d frac %v", s.Switchers, s.SwitcherFrac)
	}
	if s.PostTakeoverFrac != 1 {
		t.Fatalf("post-takeover %v", s.PostTakeoverFrac)
	}
	if s.Chord.Flow("flagship.example", "topic.example") != 1 {
		t.Fatal("chord flow missing")
	}
	if s.FlagshipToTopicalFrac != 1 {
		t.Fatalf("flagship->topical %v", s.FlagshipToTopicalFrac)
	}
	if s.SwitchersWithEgo != 1 {
		t.Fatalf("switchers with ego %d", s.SwitchersWithEgo)
	}
	if math.Abs(s.MeanFracSecond-0.5) > 1e-9 {
		t.Fatalf("frac second %v", s.MeanFracSecond)
	}
	if math.Abs(s.MeanFracSecondBefore-1.0) > 1e-9 {
		t.Fatalf("frac second before %v", s.MeanFracSecondBefore)
	}
}

func mkTimelines(ds *crawler.Dataset, id string, tweets, statuses []crawler.Post) {
	ds.TwitterTimelines[id] = &crawler.TwitterTimeline{State: crawler.StateOK, Posts: tweets}
	ds.MastodonTimelines[id] = &crawler.MastodonTimeline{State: crawler.StateOK, Posts: statuses}
}

func TestTimelinesBuckets(t *testing.T) {
	ds := crawler.NewDataset()
	at := vclock.StudyStart.Add(36 * time.Hour) // day 1
	mkTimelines(ds, "u0",
		[]crawler.Post{{ID: "1", Time: at, Text: "x", Toxicity: -1}},
		[]crawler.Post{{ID: "2", Time: at.Add(24 * time.Hour), Text: "y", Toxicity: -1}})
	d := Engine{}.Timelines(ds)
	if d.Tweets[1] != 1 || d.Statuses[2] != 1 {
		t.Fatalf("buckets wrong: %v %v", d.Tweets[:4], d.Statuses[:4])
	}
}

func TestRQ3Sources(t *testing.T) {
	ds := crawler.NewDataset()
	pre := vclock.Takeover.Add(-24 * time.Hour)
	post := vclock.Takeover.Add(24 * time.Hour)
	mkTimelines(ds, "u0", []crawler.Post{
		{ID: "1", Time: pre, Text: "a", Source: "Twitter Web App", Toxicity: -1},
		{ID: "2", Time: post, Text: "b", Source: "Twitter Web App", Toxicity: -1},
		{ID: "3", Time: post, Text: "c", Source: "Moa Bridge", Toxicity: -1},
		{ID: "4", Time: post.Add(time.Hour), Text: "d", Source: "Moa Bridge", Toxicity: -1},
	}, nil)
	mkTimelines(ds, "u1", []crawler.Post{
		{ID: "5", Time: post, Text: "e", Source: "Twitter for iPhone", Toxicity: -1},
	}, nil)
	s := Engine{}.RQ3Sources(ds)
	if s.CrossposterUserFrac != 0.5 {
		t.Fatalf("crossposter user frac %v", s.CrossposterUserFrac)
	}
	if s.DailyCrossposterUsers[vclock.Day(post)] != 1 {
		t.Fatal("daily crossposter users wrong")
	}
	var moa *SourceCount
	for i := range s.Top30 {
		if s.Top30[i].Name == "Moa Bridge" {
			moa = &s.Top30[i]
		}
	}
	if moa == nil || moa.Pre != 0 || moa.Post != 2 {
		t.Fatalf("moa row %+v", moa)
	}
}

func TestSourceGrowth(t *testing.T) {
	if g := (SourceCount{Pre: 10, Post: 120}).Growth(); math.Abs(g-11) > 1e-9 {
		t.Fatalf("growth %v", g)
	}
	if g := (SourceCount{Pre: 0, Post: 0}).Growth(); g != 0 {
		t.Fatalf("zero growth %v", g)
	}
}

func TestRQ3Overlap(t *testing.T) {
	ds := crawler.NewDataset()
	at := vclock.Takeover
	tweetText := "announcing my brand new project on decentralized social networks tonight"
	mkTimelines(ds, "u0",
		[]crawler.Post{{ID: "1", Time: at, Text: tweetText, Toxicity: -1}},
		[]crawler.Post{
			{ID: "2", Time: at, Text: tweetText, Toxicity: -1},                                      // identical
			{ID: "3", Time: at, Text: "totally unrelated gardening words about soil", Toxicity: -1}, // different
		})
	o := Engine{}.RQ3Overlap(ds, OverlapOptions{})
	if o.UsersCompared != 1 {
		t.Fatalf("users compared %d", o.UsersCompared)
	}
	if math.Abs(o.MeanIdentical-0.5) > 1e-9 {
		t.Fatalf("identical %v", o.MeanIdentical)
	}
	if o.MeanSimilar < 0.5 {
		t.Fatalf("similar %v (identical counts as similar)", o.MeanSimilar)
	}
	if o.CompletelyDifferentFrac != 0 {
		t.Fatalf("different %v", o.CompletelyDifferentFrac)
	}
}

// TestRQ3OverlapIdenticalNeedsTheBestMatch pins why an exact-text lookup
// cannot short-circuit the Identical class: a lower-index tweet that
// differs only in case and punctuation embeds to the same vector, wins
// the tie, and makes the status Similar, not Identical.
func TestRQ3OverlapIdenticalNeedsTheBestMatch(t *testing.T) {
	ds := crawler.NewDataset()
	at := vclock.Takeover
	text := "announcing my brand new project on decentralized social networks tonight"
	mkTimelines(ds, "u0",
		[]crawler.Post{
			{ID: "1", Time: at, Text: "Announcing my brand-new project on decentralized social networks tonight!", Toxicity: -1},
			{ID: "2", Time: at, Text: text, Toxicity: -1},
		},
		[]crawler.Post{{ID: "3", Time: at, Text: text, Toxicity: -1}})
	o := Engine{}.RQ3Overlap(ds, OverlapOptions{})
	if o.MeanIdentical != 0 || o.MeanSimilar != 1 {
		t.Fatalf("identical %v, similar %v; want 0 and 1", o.MeanIdentical, o.MeanSimilar)
	}
}

func TestRQ3OverlapMaxUsers(t *testing.T) {
	ds := crawler.NewDataset()
	at := vclock.Takeover
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("u%d", i)
		mkTimelines(ds, id,
			[]crawler.Post{{ID: "t" + id, Time: at, Text: "hello world post", Toxicity: -1}},
			[]crawler.Post{{ID: "s" + id, Time: at, Text: "different text entirely here", Toxicity: -1}})
	}
	o := Engine{}.RQ3Overlap(ds, OverlapOptions{MaxUsers: 2})
	if o.UsersCompared != 2 {
		t.Fatalf("max users ignored: %d", o.UsersCompared)
	}
}

func TestRQ3Hashtags(t *testing.T) {
	ds := crawler.NewDataset()
	at := vclock.Takeover
	mkTimelines(ds, "u0",
		[]crawler.Post{{ID: "1", Time: at, Text: "match tonight #Football #football", Toxicity: -1}},
		[]crawler.Post{{ID: "2", Time: at, Text: "hello #fediverse", Toxicity: -1}})
	h := Engine{}.RQ3Hashtags(ds)
	if len(h.Twitter) == 0 || h.Twitter[0].Key != "#football" || h.Twitter[0].Count != 2 {
		t.Fatalf("twitter tags %v", h.Twitter)
	}
	if len(h.Mastodon) == 0 || h.Mastodon[0].Key != "#fediverse" {
		t.Fatalf("mastodon tags %v", h.Mastodon)
	}
}

func TestRQ3ToxicityWithScores(t *testing.T) {
	ds := crawler.NewDataset()
	at := vclock.Takeover
	mkTimelines(ds, "u0",
		[]crawler.Post{
			{ID: "1", Time: at, Text: "a", Toxicity: 0.9},
			{ID: "2", Time: at, Text: "b", Toxicity: 0.1},
		},
		[]crawler.Post{
			{ID: "3", Time: at, Text: "c", Toxicity: 0.8},
			{ID: "4", Time: at, Text: "d", Toxicity: 0.2},
			{ID: "5", Time: at, Text: "e", Toxicity: 0.2},
			{ID: "6", Time: at, Text: "f", Toxicity: 0.2},
		})
	x := Engine{}.RQ3Toxicity(ds, ToxicityOptions{})
	if x.OverallTweetToxic != 0.5 {
		t.Fatalf("tweet toxicity %v", x.OverallTweetToxic)
	}
	if x.OverallStatusToxic != 0.25 {
		t.Fatalf("status toxicity %v", x.OverallStatusToxic)
	}
	if x.BothPlatformsFrac != 1 {
		t.Fatalf("both platforms %v", x.BothPlatformsFrac)
	}
}

func TestRQ3ToxicityThreshold(t *testing.T) {
	ds := crawler.NewDataset()
	at := vclock.Takeover
	mkTimelines(ds, "u0",
		[]crawler.Post{{ID: "1", Time: at, Text: "a", Toxicity: 0.6}}, nil)
	strict := Engine{}.RQ3Toxicity(ds, ToxicityOptions{Threshold: 0.8})
	if strict.OverallTweetToxic != 0 {
		t.Fatal("0.6 counted toxic at 0.8 threshold")
	}
	loose := Engine{}.RQ3Toxicity(ds, ToxicityOptions{Threshold: 0.5})
	if loose.OverallTweetToxic != 1 {
		t.Fatal("0.6 not toxic at 0.5 threshold")
	}
}

func TestRQ3ToxicityScoreFn(t *testing.T) {
	ds := crawler.NewDataset()
	at := vclock.Takeover
	mkTimelines(ds, "u0",
		[]crawler.Post{{ID: "1", Time: at, Text: "unscored", Toxicity: -1}}, nil)
	// Without ScoreFn: skipped.
	x := Engine{}.RQ3Toxicity(ds, ToxicityOptions{})
	if x.ScoredTweets != 0 {
		t.Fatal("unscored post counted")
	}
	// With ScoreFn: scored.
	x = Engine{}.RQ3Toxicity(ds, ToxicityOptions{ScoreFn: func(string) float64 { return 0.9 }})
	if x.ScoredTweets != 1 || x.OverallTweetToxic != 1 {
		t.Fatalf("scorefn path: %+v", x)
	}
}

func TestCollectionFigure(t *testing.T) {
	ds := crawler.NewDataset()
	at := vclock.Takeover.Add(time.Hour)
	ds.CollectedTweets = []crawler.CollectedTweet{
		{ID: "1", Time: at, Class: crawler.ClassInstanceLink},
		{ID: "2", Time: at, Class: crawler.ClassKeyword},
		{ID: "3", Time: at, Class: crawler.ClassKeyword},
	}
	c := Engine{}.CollectionFigure(ds)
	d := vclock.Day(at)
	if c.InstanceLinks[d] != 1 || c.Keywords[d] != 2 {
		t.Fatalf("collection buckets: %d %d", c.InstanceLinks[d], c.Keywords[d])
	}
}

func TestActivityFigure(t *testing.T) {
	ds := crawler.NewDataset()
	wk1 := vclock.WeekStart(vclock.Week(vclock.StudyStart))
	wk2 := wk1.Add(7 * 24 * time.Hour)
	ds.Activity["a.example"] = []crawler.WeekActivity{
		{Week: wk1, Registrations: 1, Logins: 2, Statuses: 3},
		{Week: wk2, Registrations: 10, Logins: 20, Statuses: 30},
	}
	ds.Activity["b.example"] = []crawler.WeekActivity{
		{Week: wk1, Registrations: 5, Logins: 5, Statuses: 5},
	}
	a := Engine{}.ActivityFigure(ds)
	if len(a.Weeks) != 2 {
		t.Fatalf("weeks %v", a.Weeks)
	}
	if a.Registrations[0] != 6 || a.Statuses[0] != 8 {
		t.Fatalf("aggregation wrong: %v %v", a.Registrations, a.Statuses)
	}
	if a.Registrations[1] != 10 {
		t.Fatal("second week wrong")
	}
}

func TestDomainIsPersonal(t *testing.T) {
	if !domainIsPersonal("alice.page") || domainIsPersonal("mastodon.social") {
		t.Fatal("personal domain heuristic")
	}
}

func TestSourceIsOfficial(t *testing.T) {
	if !sourceIsOfficial("Twitter Web App") || !sourceIsOfficial("TweetDeck") {
		t.Fatal("official sources")
	}
	if sourceIsOfficial("Moa Bridge") {
		t.Fatal("bridge flagged official")
	}
}
