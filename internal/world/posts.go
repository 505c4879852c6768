package world

import (
	"sort"
	"time"

	"flock/internal/ids"
	"flock/internal/parallel"
	"flock/internal/randx"
	"flock/internal/textkit"
	"flock/internal/vclock"
)

// tweetSources is the official-client mix behind Fig. 12. Weights are
// relative; cross-poster sources are attached to tool users separately.
var tweetSources = []struct {
	name   string
	weight float64
}{
	{"Twitter Web App", 34},
	{"Twitter for iPhone", 29},
	{"Twitter for Android", 22},
	{"TweetDeck", 5},
	{"Twitter for iPad", 3},
	{"Hootsuite Inc.", 1.6},
	{"Buffer", 1.2},
	{"IFTTT", 0.9},
	{"Tweetbot for iOS", 0.8},
	{"Echofon", 0.5},
	{"SocialFlow", 0.5},
	{"Sprout Social", 0.5},
	{"dlvr.it", 0.4},
	{"Twitter Media Studio", 0.3},
	{"Fenix 2", 0.3},
}

// keywordChatter is the migration-talk hazard per study day for
// bystanders and migrants alike (Fig. 2's shape): quiet before the
// takeover, a big spike after, waves at layoffs and ultimatum.
func keywordChatter(day int) float64 {
	takeover, layoffs, ultimatum := vclock.Day(vclock.Takeover), vclock.Day(vclock.Layoffs), vclock.Day(vclock.Ultimatum)
	switch {
	case day < takeover:
		return 0.012
	case day < layoffs:
		return 0.30 * decay(day-takeover, 3.0, layoffs-takeover) * 8
	case day < ultimatum:
		return 0.22 * decay(day-layoffs, 4.0, ultimatum-layoffs) * 13
	default:
		return 0.20 * decay(day-ultimatum, 4.5, vclock.StudyDays-ultimatum) * 14
	}
}

// userPosts is one user's generated tweets and statuses, each list in
// its final order and still without IDs.
type userPosts struct {
	tweets   []Tweet
	statuses []Status
}

// genPosts builds every tweet and status in the world. Users are
// generated in parallel, each from its own random stream, and joined in
// user order, so the world is the same at any worker count.
func (w *World) genPosts(rng *randx.Source) {
	srcWeights := make([]float64, len(tweetSources))
	for i, s := range tweetSources {
		srcWeights[i] = s.weight
	}
	srcPick := randx.NewWeighted(srcWeights)

	// Split advances its parent, so every stream is split here, in user
	// order.
	streams := make([]*randx.Source, len(w.Users))
	for u := range w.Users {
		streams[u] = rng.SplitN("posts", u)
	}
	posts := parallel.MapSlice(0, len(w.Users), func(u int) userPosts {
		user, r := w.Users[u], streams[u]
		tg := textkit.NewGenerator(r.Split("text"))
		switch {
		case user.Migrated:
			return w.genMigrantPosts(user, r, tg, srcPick)
		case user.Bystander:
			return userPosts{tweets: genBystanderPosts(user, r, tg, srcPick)}
		}
		return userPosts{}
	})

	// A Generator is sequential state, so IDs are minted in one pass, in
	// user order. Every list is already in its final order, and nothing
	// above reads an ID, so these are the IDs a serial pass would mint.
	tweetGen := ids.NewGenerator(2)
	statusGen := ids.NewGenerator(3)
	w.TweetsByUser = make([][]Tweet, len(w.Users))
	w.StatusesByUser = make([][]Status, len(w.Users))
	for u, p := range posts {
		for i := range p.tweets {
			p.tweets[i].ID = tweetGen.At(p.tweets[i].Time)
		}
		for i := range p.statuses {
			p.statuses[i].ID = statusGen.At(p.statuses[i].Time)
		}
		w.TweetsByUser[u] = p.tweets
		w.StatusesByUser[u] = p.statuses
	}
}

// pickSource draws an official client name.
func pickSource(r *randx.Source, srcPick *randx.Weighted) string {
	return tweetSources[srcPick.Sample(r)].name
}

// genMigrantPosts generates a migrant's full two-platform history.
func (w *World) genMigrantPosts(user *User, r *randx.Source, tg *textkit.Generator,
	srcPick *randx.Weighted) userPosts {

	// Personal posting rates: heavy-tailed across users.
	tweetRate := w.Cfg.TweetsPerDay * (0.3 + r.LogNormal(0, 0.5))
	// Status rate scales with dedication: the Fig. 6 activity paradox —
	// dedicated users (who pick small/personal servers) post much more.
	statusRate := w.Cfg.StatusesPerDay * (0.25 + 2.6*user.Dedication) * (0.5 + r.Float64())
	if user.Silent {
		statusRate = 0
	}

	var tweets []Tweet
	var statuses []Status

	// The user's favourite client stays fixed; a minority rotates.
	mainSource := pickSource(r, srcPick)

	for d := 0; d < vclock.StudyDays; d++ {
		dayStart := vclock.DayStart(d)
		// --- Tweets: the paper finds Twitter activity does NOT drop
		// after migration (Fig. 11), so the rate is flat. Deleted or
		// suspended accounts stop tweeting at their exit moment; we
		// approximate exit as uniformly late in the window.
		nT := r.Poisson(tweetRate)
		for k := 0; k < nT; k++ {
			at := dayStart.Add(time.Duration(r.Intn(24*3600)) * time.Second)
			toxic := r.Bool(user.ToxicTweetP)
			src := mainSource
			if r.Bool(0.15) {
				src = pickSource(r, srcPick)
			}
			text := tg.Post(textkit.PostOpts{
				Topic:    tweetTopic(r, user),
				Hashtags: r.Intn(3),
				Toxic:    toxic,
			})
			tweets = append(tweets, Tweet{
				UserID: user.ID, Time: at, Text: text, Source: src,
				Kind: KindNormal, Toxic: toxic,
			})
		}
		// --- Keyword chatter about the migration.
		if r.Bool(keywordChatter(d) * 0.35) {
			at := dayStart.Add(time.Duration(r.Intn(24*3600)) * time.Second)
			text := tg.Post(textkit.PostOpts{Topic: textkit.TopicMigration, Hashtags: 1 + r.Intn(2)})
			tweets = append(tweets, Tweet{
				UserID: user.ID, Time: at, Text: text, Source: mainSource,
				Kind: KindKeyword, Toxic: false,
			})
		}
	}

	// --- Announcement tweet(s) on migration day.
	annTime := user.MigratedAt
	domain := w.Instances[user.FirstInstance].Domain
	ann := tg.MigrationAnnouncement(user.AnnounceStyle, user.MastodonUsername, domain)
	tweets = append(tweets, Tweet{
		UserID: user.ID, Time: annTime, Text: ann, Source: mainSource,
		Kind: KindAnnouncement, Toxic: false,
	})
	if r.Bool(0.3) {
		// A reminder announcement days later.
		later := annTime.Add(time.Duration(1+r.Intn(10)) * 24 * time.Hour)
		if later.Before(vclock.StudyEnd.Add(24 * time.Hour)) {
			style := user.AnnounceStyle
			tweets = append(tweets, Tweet{
				UserID: user.ID, Time: later,
				Text:   tg.MigrationAnnouncement(style, user.MastodonUsername, domain),
				Source: mainSource, Kind: KindAnnouncement, Toxic: false,
			})
		}
	}
	// A switch announcement if the user moved instance.
	if user.SecondInstance >= 0 && user.SwitchedAt.Before(vclock.StudyEnd.Add(24*time.Hour)) {
		tweets = append(tweets, Tweet{
			UserID: user.ID, Time: user.SwitchedAt,
			Text:   tg.MigrationAnnouncement(user.AnnounceStyle%2, user.MastodonUsername, w.Instances[user.SecondInstance].Domain),
			Source: mainSource, Kind: KindAnnouncement, Toxic: false,
		})
	}

	// --- Statuses. Activity starts at account creation for early
	// adopters (low pre-takeover rate) and ramps at migration.
	if !user.Silent {
		statusStart := user.MastodonCreatedAt
		if statusStart.Before(vclock.StudyStart) {
			statusStart = vclock.StudyStart
		}
		for d := vclock.Day(statusStart); d < vclock.StudyDays; d++ {
			if d < 0 {
				continue
			}
			dayStart := vclock.DayStart(d)
			rate := statusRate
			if dayStart.Before(user.MigratedAt) {
				rate *= 0.15 // pre-announcement lurking period
			}
			nS := r.Poisson(rate)
			for k := 0; k < nS; k++ {
				at := dayStart.Add(time.Duration(r.Intn(24*3600)) * time.Second)
				if at.Before(user.MastodonCreatedAt) {
					continue
				}
				inst := user.CurrentInstance(at)
				toxic := r.Bool(user.ToxicStatusP)
				// Mastodon content in the window is dominated by
				// fediverse/migration talk (Fig. 15).
				topic := statusTopic(r, user)
				text := tg.Post(textkit.PostOpts{Topic: topic, Hashtags: r.Intn(3), Toxic: toxic})
				statuses = append(statuses, Status{
					UserID: user.ID, InstanceID: inst, Time: at, Text: text,
					MirroredFrom: -1, Toxic: toxic,
				})
			}
		}
	}

	// --- Cross-posting: tool users bridge Mastodon statuses to Twitter
	// (Fig. 12/13); the bridged tweet's source is the tool. Bridges
	// mostly preserve text exactly; long posts get truncated (similar,
	// not identical).
	sort.Slice(statuses, func(i, j int) bool { return statuses[i].Time.Before(statuses[j].Time) })

	if user.Tool != NoTool {
		// Twitter revoked the posting limits of the bridges around
		// Nov 25 (§6.1, [21]): bridged tweets stop then.
		bridgeCutoff := vclock.StudyEnd.Add(-5 * 24 * time.Hour)
		for si := range statuses {
			s := &statuses[si]
			if s.Time.Before(user.MigratedAt) || s.Time.After(bridgeCutoff) {
				continue
			}
			if !r.Bool(0.8) {
				continue
			}
			text := s.Text
			identical := r.Bool(0.35)
			if !identical {
				text = tg.Paraphrase(text)
			}
			tweets = append(tweets, Tweet{
				UserID: user.ID, Time: s.Time.Add(time.Duration(30+r.Intn(90)) * time.Second),
				Text: text, Source: user.Tool.SourceName(),
				Kind: KindNormal, Toxic: s.Toxic,
			})
		}
	}

	// Final ordering: exactly once, after every tweet exists, so the IDs
	// genPosts mints are strictly increasing in time order.
	sort.Slice(tweets, func(i, j int) bool { return tweets[i].Time.Before(tweets[j].Time) })

	switch {
	case user.Tool != NoTool:
		markMirrors(tweets, statuses)
	case user.MirrorRate > 0:
		// Manual mirrorers: some statuses repeat a same-day tweet.
		for si := range statuses {
			s := &statuses[si]
			if !r.Bool(user.MirrorRate) {
				continue
			}
			ti := sameDayTweet(tweets, s.Time)
			if ti < 0 {
				continue
			}
			if r.Bool(0.12) {
				s.Text = tweets[ti].Text // identical
			} else {
				s.Text = tg.Paraphrase(tweets[ti].Text) // similar
			}
			s.Toxic = tweets[ti].Toxic
			s.MirroredFrom = ti
		}
	}

	return userPosts{tweets: tweets, statuses: statuses}
}

// markMirrors links bridged tweets back to their source statuses.
func markMirrors(tweets []Tweet, statuses []Status) {
	// Bridged tweets carry the tool source; match them to the closest
	// preceding status.
	for ti := range tweets {
		if tweets[ti].Source != ToolCrossposter.SourceName() && tweets[ti].Source != ToolMoa.SourceName() {
			continue
		}
		for si := len(statuses) - 1; si >= 0; si-- {
			if !statuses[si].Time.After(tweets[ti].Time) {
				if statuses[si].MirroredFrom < 0 {
					statuses[si].MirroredFrom = ti
				}
				break
			}
		}
	}
}

// sameDayTweet returns the index of a normal tweet on the same study day
// as t, or -1.
func sameDayTweet(tweets []Tweet, t time.Time) int {
	day := vclock.Day(t)
	for i := range tweets {
		if tweets[i].Kind == KindNormal && vclock.Day(tweets[i].Time) == day {
			return i
		}
	}
	return -1
}

// tweetTopic draws a tweet topic: mostly the user's interest, spread over
// the diverse Twitter topic mix (Fig. 15 left).
func tweetTopic(r *randx.Source, user *User) textkit.Topic {
	if r.Bool(0.55) {
		return user.Topic
	}
	// Anything but the fediverse topics, which are rare on Twitter
	// outside keyword tweets.
	t := textkit.Topic(2 + r.Intn(textkit.NumTopics-2))
	return t
}

// statusTopic draws a Mastodon status topic: fediverse/migration heavy
// (Fig. 15 right) with the user's interest mixed in.
func statusTopic(r *randx.Source, user *User) textkit.Topic {
	switch {
	case r.Bool(0.30):
		return textkit.TopicFediverse
	case r.Bool(0.30):
		return textkit.TopicMigration
	case r.Bool(0.6):
		return user.Topic
	default:
		return textkit.Topic(r.Intn(textkit.NumTopics))
	}
}

// genBystanderPosts generates keyword-only chatter for non-migrants.
func genBystanderPosts(user *User, r *randx.Source, tg *textkit.Generator, srcPick *randx.Weighted) []Tweet {
	var tweets []Tweet
	mainSource := pickSource(r, srcPick)
	for d := 0; d < vclock.StudyDays; d++ {
		if !r.Bool(keywordChatter(d) * 0.8) {
			continue
		}
		at := vclock.DayStart(d).Add(time.Duration(r.Intn(24*3600)) * time.Second)
		toxic := r.Bool(user.ToxicTweetP * 0.5)
		text := tg.Post(textkit.PostOpts{Topic: textkit.TopicMigration, Hashtags: 1 + r.Intn(2), Toxic: toxic})
		tweets = append(tweets, Tweet{
			UserID: user.ID, Time: at, Text: text, Source: mainSource,
			Kind: KindKeyword, Toxic: toxic,
		})
	}
	return tweets
}
