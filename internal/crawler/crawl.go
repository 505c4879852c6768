package crawler

import (
	"context"
	"errors"
	"fmt"
	"html"
	"maps"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"flock/internal/httpkit"
	"flock/internal/match"
	"flock/internal/vclock"
)

// DefaultKeywords are the §3.1 keyword and hashtag queries, verbatim.
var DefaultKeywords = []string{
	"mastodon",
	`"bye bye twitter"`,
	`"good bye twitter"`,
	"#Mastodon",
	"#MastodonMigration",
	"#ByeByeTwitter",
	"#GoodByeTwitter",
	"#TwitterMigration",
	"#MastodonSocial",
	"#RIPTwitter",
}

// Transport groups the wire-level knobs of a crawl — how requests are
// performed, bounded, hedged and circuit-broken — so they stop
// interleaving with pipeline knobs (sampling, keywords, checkpoints).
// It is embedded in Config; field access is promoted, so existing
// cfg.Concurrency readers keep working.
type Transport struct {
	// HTTP performs all requests (point it at the memnet fabric or a real
	// network).
	HTTP httpkit.Doer
	// Concurrency bounds the crawl's work outside waits (default 8): a
	// goroutine that holds one of its slots waits only on its own CPU
	// work, and every other wait lends the slot. A unit waiting out a
	// retry backoff, at the host gate, for its hedge race's attempts or
	// on the fabric's injected delays does not count against it; at most
	// 16x as many units exist at once (see httpkit.Group).
	Concurrency int
	// Hedge enables tail-latency hedging on the crawl's shared client
	// (zero value: off).
	Hedge httpkit.HedgePolicy
	// Adaptive has no effect; it is kept only so that code which still
	// sets it compiles. Delete it with its last user.
	Adaptive AdaptivePolicy
	// Breaker tunes the per-host circuit-breaker registry shared by the
	// crawl's HTTP clients (see Crawler.Health); zero fields take
	// httpkit.DefaultBreaker values.
	Breaker httpkit.BreakerPolicy
}

// AdaptivePolicy has no effect; it is kept only so that code which still
// sets Transport.Adaptive compiles. Delete it with its last user.
type AdaptivePolicy struct{ Enabled bool }

// Config parameterizes a crawl.
type Config struct {
	// Service endpoints.
	TwitterBase     string
	IndexBase       string
	PerspectiveBase string
	// Transport holds the wire-level knobs (HTTP doer, concurrency,
	// hedging, breakers).
	Transport
	// ScoreToxicity enables the §6.3 Perspective pass over every post.
	ScoreToxicity bool
	// Keywords overrides DefaultKeywords when non-nil.
	Keywords []string
	// Logf receives progress lines (nil = silent): one per phase, once
	// the phase's batch has ended, so the Twitter and Mastodon timeline
	// lines print together after both timeline phases.
	Logf func(format string, args ...any)
	// BeforeTimelines runs after discovery+mapping and before the batch
	// that crawls both timelines. The simulation uses it to take
	// instances down at the point in the crawl where the paper's
	// instance deaths bit (§3.2's 11.58%). On a resumed run it fires
	// again whenever the timeline phases are not yet complete.
	BeforeTimelines func()

	// Checkpoint persists per-phase progress so a cancelled or crashed
	// Run resumes where it stopped (nil = no persistence).
	Checkpoint Checkpoint
	// CheckpointEvery is the number of completed work units between
	// periodic mid-phase saves (default 32). Phase boundaries always
	// save.
	CheckpointEvery int
	// NoHealthResume discards the checkpoint's persisted health snapshot
	// on resume: the run re-learns host health from scratch instead of
	// planning around previously quarantined hosts.
	NoHealthResume bool
}

// Crawler runs the pipeline.
type Crawler struct {
	cfg     Config
	client  *httpkit.Client
	tw      *TwitterClient
	masto   *MastodonClient
	index   *IndexClient
	tox     *PerspectiveClient
	health  *httpkit.HealthRegistry
	gate    hostGate
	twHost  string
	toxHost string
	t       *tracker
}

// New builds a Crawler. All service clients share ONE httpkit client —
// so the hedge budget, latency digests and per-host health registry are
// global across the crawl — and one host gate that skips quarantined
// instances and probes hosts on probation (see under).
func New(cfg Config) *Crawler {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 32
	}
	if cfg.Keywords == nil {
		cfg.Keywords = DefaultKeywords
	}
	health := httpkit.NewHealthRegistry(cfg.Breaker)
	client := httpkit.New(
		httpkit.WithDoer(cfg.HTTP),
		httpkit.WithUserAgent("flock-crawler/1.0"),
		httpkit.WithRetry(httpkit.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}),
		httpkit.WithBreaker(health),
		httpkit.WithHedge(cfg.Hedge),
	)
	c := &Crawler{
		cfg:     cfg,
		client:  client,
		tw:      &TwitterClient{Base: cfg.TwitterBase, C: client},
		masto:   &MastodonClient{C: client},
		index:   &IndexClient{Base: cfg.IndexBase, C: client},
		tox:     &PerspectiveClient{Base: cfg.PerspectiveBase, C: client},
		health:  health,
		twHost:  hostOf(cfg.TwitterBase),
		toxHost: hostOf(cfg.PerspectiveBase),
		t:       &tracker{ckpt: cfg.Checkpoint, every: cfg.CheckpointEvery, prog: newProgress(), health: health},
	}
	return c
}

// hostOf extracts the lowercased hostname of a base URL, matching the
// key httpkit's breaker registry uses for the same requests.
func hostOf(base string) string {
	if u, err := url.Parse(base); err == nil && u.Hostname() != "" {
		return strings.ToLower(u.Hostname())
	}
	return strings.ToLower(base)
}

func (c *Crawler) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// waitPhase waits out a worker group and wraps its error with the phase
// name. On cancellation every in-flight worker returns the same context
// error and Group.Wait joins them all; collapse that pile to the one
// context error.
func waitPhase(ctx context.Context, g *httpkit.Group, phase string) error {
	err := g.Wait()
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		err = ctx.Err()
	}
	return fmt.Errorf("crawler: %s: %w", phase, err)
}

// Health exposes the crawl's per-host breaker registry.
func (c *Crawler) Health() *httpkit.HealthRegistry { return c.health }

// unit is one resumable work unit of a keyed phase. fetch returns the
// unit's record and its gap: a terminal failure, which the record
// carries and the crawl report lists under the unit's key. The record is
// written either way.
type unit struct {
	key   string
	fetch func(ctx context.Context) (Record, error)
}

// keyedPhase is one of the phases between the instance index and
// toxicity scoring. It builds its units from the dataset its batch
// starts with, and Run logs its line with count after the batch.
type keyedPhase struct {
	phase int
	name  string
	units func(*Crawler, *Dataset) []unit
	line  string
	count func(*Dataset) int
}

// keyedPhases are the keyed phases in order, in batches of consecutive
// phases that share one worker group (see runPhases). The two timeline
// phases form the one batch of two. Their units commute: the Twitter
// units reach only the birdsite host, the Mastodon units are built from
// the pairs alone and reach only fediverse instances, and everything
// that decides a unit's outcome (breakers, the host gate, quarantine,
// hedge digests, the fault schedule) is kept per host. The followee
// units read the Twitter timelines, and they and the activity units
// reach the fediverse instances, so those phases run alone.
var keyedPhases = [][]keyedPhase{
	{{phaseTweets, "tweet collection", (*Crawler).tweetQueries,
		"collected %d tweets", func(d *Dataset) int { return len(d.CollectedTweets) }}},
	{{phaseMapping, "account mapping", (*Crawler).authors,
		"mapped %d account pairs", func(d *Dataset) int { return len(d.Pairs) }}},
	{
		{phaseTwitterTL, "twitter timelines", (*Crawler).twitterTimelines,
			"twitter timelines: %d", func(d *Dataset) int { return len(d.TwitterTimelines) }},
		{phaseMastoTL, "mastodon timelines", (*Crawler).mastodonTimelines,
			"mastodon timelines: %d", func(d *Dataset) int { return len(d.MastodonTimelines) }},
	},
	{{phaseFollowees, "followee sample", (*Crawler).followeeSample,
		"followee sample: %d users", func(d *Dataset) int { return len(d.TwitterFollowees) }}},
	{{phaseActivity, "activity", (*Crawler).activityDomains,
		"activity: %d instances", func(d *Dataset) int { return len(d.Activity) }}},
}

// Run executes the full §3 pipeline and returns the dataset. With a
// Checkpoint configured, progress persists across cancellation: calling
// Run again resumes at the first incomplete phase, with the rest of its
// batch (see keyedPhases), and skips the work units whose records were
// saved.
func (c *Crawler) Run(ctx context.Context) (*Dataset, error) {
	if err := c.begin(); err != nil {
		return nil, err
	}
	t := c.t
	prog := t.prog
	ds := prog.Dataset

	// abort saves best-effort so an interrupted run can resume, then
	// surfaces the phase error.
	abort := func(err error) (*Dataset, error) {
		_ = t.flush()
		return nil, err
	}

	// Phase 1 (§3.1): instance index. Every later phase needs it, so its
	// failure is fatal and it has no units.
	if prog.Phase < phaseIndex {
		instances, err := c.index.List(ctx)
		if err != nil {
			return abort(fmt.Errorf("crawler: instance index: %w", err))
		}
		if err := t.end(Record{Phase: phaseIndex, Instances: &instances}); err != nil {
			return nil, err
		}
	}
	c.logf("index: %d instances", len(ds.Instances))

	for _, batch := range keyedPhases {
		if prog.Phase < batch[len(batch)-1].phase {
			// The hook fires on every run (including resumes) that still
			// has timeline work left, before the batch that does it.
			if batch[0].phase == phaseTwitterTL && c.cfg.BeforeTimelines != nil {
				c.cfg.BeforeTimelines()
			}
			if err := c.runPhases(ctx, t, batch); err != nil {
				return abort(err)
			}
		}
		for _, ph := range batch {
			c.logf(ph.line, ph.count(ds))
		}
	}

	// Phase 7 (§6.3): toxicity scoring.
	if c.cfg.ScoreToxicity && prog.Phase < phaseToxicity {
		if err := c.scoreToxicity(ctx, t); err != nil {
			return abort(err)
		}
	}
	if err := t.flush(); err != nil {
		return nil, err
	}
	return ds, nil
}

// runPhases runs a batch of consecutive keyed phases through one worker
// group, leaving out the phases the progress has already ended, then
// ends them in order. It writes each unit's record, with its gap and
// quarantine skip if it has them. A unit whose fetch returns after ctx
// is done writes nothing: the batch fails with the context error, and a
// resumed run fetches the unit again.
//
// Only the first phase left can be one that a killed run had begun, so
// it skips the units the progress already has done; every later phase
// starts with none done. The later phases' units are scheduled first:
// in the timeline batch these are the Mastodon units, so a retry chain
// against a dead instance starts at once and the Twitter units fill its
// backoffs. Their records are held until the group drains and the
// phases before theirs have ended, so the journal and every checkpoint
// stay in phase order; a kill inside the batch loses only the held
// records.
func (c *Crawler) runPhases(ctx context.Context, t *tracker, batch []keyedPhase) error {
	for batch[0].phase <= t.prog.Phase {
		batch = batch[1:]
	}
	names := make([]string, len(batch))
	for i, ph := range batch {
		names[i] = ph.name
	}
	var mu sync.Mutex
	held := make([][]Record, len(batch))
	g := httpkit.NewGroup(ctx, c.cfg.Concurrency)
	for i := len(batch) - 1; i >= 0; i-- {
		// Mark each key as it is scheduled, so a key listed twice (a
		// repeated keyword, two pairs sharing a Twitter ID) runs once. The
		// first phase starts from a copy of the progress's done set, as
		// its workers add to the live one.
		done := map[string]bool{}
		if i == 0 {
			done = maps.Clone(t.prog.Done)
		}
		phase := batch[i].phase
		for _, u := range batch[i].units(c, t.prog.Dataset) {
			if done[u.key] {
				continue
			}
			done[u.key] = true
			g.Go(func(ctx context.Context) error {
				rec, gap := u.fetch(ctx)
				if err := ctx.Err(); err != nil {
					return err
				}
				rec.Phase, rec.Key = phase, u.key
				if gap != nil {
					rec.Gap = gap.Error()
					var skip *quarantineSkip
					if errors.As(gap, &skip) {
						rec.SkippedHost = skip.host
					}
				}
				if i == 0 {
					return t.record(rec)
				}
				mu.Lock()
				defer mu.Unlock()
				held[i] = append(held[i], rec)
				return nil
			})
		}
	}
	if err := waitPhase(ctx, g, strings.Join(names, " and ")); err != nil {
		return err
	}
	for i, ph := range batch {
		for _, rec := range held[i] {
			if err := t.record(rec); err != nil {
				return err
			}
		}
		if err := t.end(Record{Phase: ph.phase}); err != nil {
			return err
		}
	}
	return nil
}

// tweetQueries lists the §3.1 instance-link and keyword queries over the
// collection window, one unit per query; the phase's End record dedups
// their tweets into ds.CollectedTweets. A terminally failed query is a
// coverage gap, not a failed crawl.
func (c *Crawler) tweetQueries(ds *Dataset) []unit {
	start, end := vclock.CollectionStart, vclock.CollectionEnd.Add(24*time.Hour)
	search := func(q string, class QueryClass) unit {
		return unit{q, func(ctx context.Context) (Record, error) {
			tweets, err := under(ctx, c, c.twHost, func() ([]TweetJSON, error) {
				return c.tw.SearchAll(ctx, q, start, end)
			})
			if err != nil {
				return Record{}, err
			}
			return Record{Class: class, Tweets: tweets}, nil
		}}
	}
	var units []unit
	for _, inst := range ds.Instances {
		units = append(units, search(fmt.Sprintf("url:%q", inst.Name), ClassInstanceLink))
	}
	for _, kw := range c.cfg.Keywords {
		units = append(units, search(kw, ClassKeyword))
	}
	return units
}

// authors lists one unit per collected author, in ID order: §3.1's
// hierarchical matching, then a check of each mapped handle against its
// instance. A unit's record has no pair when the author did not map or
// the handle does not resolve.
func (c *Crawler) authors(ds *Dataset) []unit {
	known := match.KnownInstances{}
	for _, inst := range ds.Instances {
		known[strings.ToLower(inst.Name)] = true
	}
	// Group collected tweets per author.
	byAuthor := map[string][]string{}
	for _, tw := range ds.CollectedTweets {
		byAuthor[tw.AuthorID] = append(byAuthor[tw.AuthorID], tw.Text)
	}
	authors := make([]string, 0, len(byAuthor))
	for a := range byAuthor {
		authors = append(authors, a)
	}
	sort.Strings(authors)
	units := make([]unit, len(authors))
	for i, authorID := range authors {
		units[i] = unit{authorID, func(ctx context.Context) (Record, error) {
			user, err := under(ctx, c, c.twHost, func() (*UserJSON, error) {
				return c.tw.UserByID(ctx, authorID)
			})
			if err != nil {
				// Account gone between collection and mapping: skip.
				return Record{}, err
			}
			profile := match.Profile{
				Username:    user.Username,
				DisplayName: user.Name,
				Description: user.Description,
				Location:    user.Location,
				URL:         user.URL,
			}
			res, ok := match.Map(profile, byAuthor[authorID], known)
			if !ok {
				return Record{}, nil
			}
			pair := AccountPair{
				TwitterID:        user.ID,
				TwitterUsername:  user.Username,
				Verified:         user.Verified,
				TwitterFollowers: user.PublicMetrics.Followers,
				TwitterFollowing: user.PublicMetrics.Following,
				Handle:           res.Handle,
				MatchSource:      res.Source,
				SameUsername:     strings.EqualFold(user.Username, res.Handle.Username),
			}
			if at, ok := parseTweetTime(user.CreatedAt); ok {
				pair.TwitterCreatedAt = at
			}
			// Verify against the instance and reconstruct the user's
			// migration chain. Three cases:
			//  - plain account: no move involved;
			//  - we found the ABANDONED account (it has a moved record
			//    pointing forward);
			//  - we found the DESTINATION account (its also_known_as
			//    alias points backwards at the first instance).
			if acc, lerr := under(ctx, c, res.Handle.Domain, func() (*MastoAccountJSON, error) {
				return c.masto.Lookup(ctx, res.Handle.Domain, res.Handle.Username)
			}); lerr == nil {
				pair.MastodonVerified = true
				pair.MastodonAccountID = acc.ID
				pair.MastodonFollowers = acc.FollowersCount
				pair.MastodonFollowing = acc.FollowingCount
				pair.MastodonStatuses = acc.StatusesCount
				if at, ok := parseTweetTime(acc.CreatedAt); ok {
					pair.MastodonCreatedAt = at
				}
				switch {
				case acc.Moved != nil:
					moved := &MovedRecord{AccountID: acc.Moved.ID}
					moved.Handle = handleFromURL(acc.Moved.URL, acc.Moved.Username)
					if at, ok := parseTweetTime(acc.Moved.CreatedAt); ok {
						moved.MovedAt = at
					}
					pair.Moved = moved
					// Counts on the live account are the meaningful ones.
					pair.MastodonFollowers = acc.Moved.FollowersCount
					pair.MastodonFollowing = acc.Moved.FollowingCount
					pair.MastodonStatuses = acc.Moved.StatusesCount
				case len(acc.AlsoKnownAs) > 0:
					// We discovered the destination; normalize the pair
					// so Handle is always the FIRST account.
					oldHandle := handleFromURL(acc.AlsoKnownAs[0], usernameFromURL(acc.AlsoKnownAs[0]))
					if old, lerr := under(ctx, c, oldHandle.Domain, func() (*MastoAccountJSON, error) {
						return c.masto.Lookup(ctx, oldHandle.Domain, oldHandle.Username)
					}); lerr == nil {
						pair.Moved = &MovedRecord{
							Handle:    res.Handle,
							AccountID: acc.ID,
						}
						if at, ok := parseTweetTime(acc.CreatedAt); ok {
							pair.Moved.MovedAt = at
						}
						pair.Handle = oldHandle
						pair.MastodonAccountID = old.ID
						pair.SameUsername = strings.EqualFold(user.Username, oldHandle.Username)
						if at, ok := parseTweetTime(old.CreatedAt); ok {
							pair.MastodonCreatedAt = at
						}
					}
				}
			} else if httpkit.IsStatus(lerr, 404) {
				// Handle does not resolve: false-positive mapping, drop.
				return Record{}, nil
			}
			return Record{Pair: &pair}, nil
		}}
	}
	return units
}

// handleFromURL reconstructs a handle from an account URL plus username.
func handleFromURL(u, username string) match.Handle {
	h := match.Handle{Username: username}
	if rest, ok := strings.CutPrefix(u, "https://"); ok {
		if i := strings.IndexByte(rest, '/'); i > 0 {
			h.Domain = rest[:i]
		}
	}
	return h
}

// usernameFromURL extracts the @user segment of a profile URL.
func usernameFromURL(u string) string {
	if i := strings.LastIndex(u, "/@"); i >= 0 {
		return u[i+2:]
	}
	return ""
}

// twitterTimelines lists one unit per pair's Twitter ID: its tweets,
// with the §3.2 failure taxonomy. Every unit records a timeline, a
// taxonomy state included; only a transport failure is a gap.
func (c *Crawler) twitterTimelines(ds *Dataset) []unit {
	start, end := vclock.StudyStart, vclock.StudyEnd.Add(24*time.Hour)
	units := make([]unit, len(ds.Pairs))
	for i := range ds.Pairs {
		id := ds.Pairs[i].TwitterID
		units[i] = unit{id, func(ctx context.Context) (Record, error) {
			tl := &TwitterTimeline{State: StateOK}
			tweets, err := under(ctx, c, c.twHost, func() ([]TweetJSON, error) {
				return c.tw.Timeline(ctx, id, start, end)
			})
			switch {
			case err == nil:
				for _, tw := range tweets {
					at, ok := parseTweetTime(tw.CreatedAt)
					if !ok {
						continue
					}
					tl.Posts = append(tl.Posts, Post{ID: tw.ID, Time: at, Text: tw.Text, Source: tw.Source, Toxicity: -1})
				}
			case httpkit.IsStatus(err, 404):
				tl.State = StateDeleted
			case httpkit.IsStatus(err, 403):
				tl.State = StateSuspended
			case httpkit.IsStatus(err, 401):
				tl.State = StateProtected
			default:
				// Transport failure, not an account state: record the gap
				// alongside the taxonomy bucket.
				tl.State = StateDeleted
				return Record{TwitterTL: tl}, err
			}
			return Record{TwitterTL: tl}, nil
		}}
	}
	return units
}

// mastodonTimelines lists one unit per pair's Twitter ID: its statuses,
// spanning both instances for moved accounts. An unreachable account is
// recorded instance-down, and a gap unless it is gone (404).
func (c *Crawler) mastodonTimelines(ds *Dataset) []unit {
	units := make([]unit, len(ds.Pairs))
	for i := range ds.Pairs {
		pair := &ds.Pairs[i]
		units[i] = unit{pair.TwitterID, func(ctx context.Context) (Record, error) {
			tl := &MastodonTimeline{State: StateOK}
			fetch := func(domain, accountID string) error {
				sts, err := under(ctx, c, domain, func() ([]MastoStatusJSON, error) {
					return c.masto.Statuses(ctx, domain, accountID)
				})
				if err != nil {
					return err
				}
				for _, s := range sts {
					at, ok := parseTweetTime(s.CreatedAt)
					if !ok {
						continue
					}
					tl.Posts = append(tl.Posts, Post{ID: s.ID, Time: at, Text: stripHTML(s.Content), Domain: domain, Toxicity: -1})
				}
				return nil
			}
			var err error
			if pair.MastodonAccountID != "" {
				err = fetch(pair.Handle.Domain, pair.MastodonAccountID)
				if err == nil && pair.Moved != nil {
					err = fetch(pair.Moved.Handle.Domain, pair.Moved.AccountID)
				}
			} else {
				// Unverified pair: try a fresh lookup (it may have failed
				// transiently during mapping).
				acc, lerr := under(ctx, c, pair.Handle.Domain, func() (*MastoAccountJSON, error) {
					return c.masto.Lookup(ctx, pair.Handle.Domain, pair.Handle.Username)
				})
				if lerr != nil {
					err = lerr
				} else {
					err = fetch(pair.Handle.Domain, acc.ID)
				}
			}
			sort.Slice(tl.Posts, func(a, b int) bool { return tl.Posts[a].Time.Before(tl.Posts[b].Time) })
			switch {
			case err != nil:
				tl.State = StateInstanceDown
				if httpkit.IsStatus(err, 404) {
					err = nil // account vanished: no gap
				}
			case len(tl.Posts) == 0:
				tl.State = StateNoStatuses
			}
			return Record{MastodonTL: tl}, err
		}}
	}
	return units
}

// stripHTML removes the <p> wrapper and line breaks from status content,
// then decodes its entities in one pass, which inverts the
// html.EscapeString the server renders text with: an escaped "&lt;"
// stays "&lt;".
func stripHTML(s string) string {
	s = strings.ReplaceAll(s, "<p>", "")
	s = strings.ReplaceAll(s, "</p>", "\n")
	s = strings.ReplaceAll(s, "<br>", "\n")
	s = strings.ReplaceAll(s, "<br/>", "\n")
	return strings.TrimSpace(html.UnescapeString(s))
}

// followeeSampleFrac is the §3.3 sample size: a tenth of the pairs whose
// Twitter account is crawlable.
const followeeSampleFrac = 0.10

// followeeSample implements §3.3: a stratified sample straddling the
// median followee count — half the sample from above the median, half
// from below — then one unit per sampled user crawls its followees on
// both platforms. The sample is a pure function of the mapped pairs, so
// a resumed run recomputes it identically.
func (c *Crawler) followeeSample(ds *Dataset) []unit {
	// Eligible: pairs whose Twitter account is crawlable.
	var eligible []*AccountPair
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		if tl := ds.TwitterTimelines[p.TwitterID]; tl != nil && tl.State == StateOK {
			eligible = append(eligible, p)
		}
	}
	sort.Slice(eligible, func(i, j int) bool {
		if eligible[i].TwitterFollowing != eligible[j].TwitterFollowing {
			return eligible[i].TwitterFollowing < eligible[j].TwitterFollowing
		}
		return eligible[i].TwitterID < eligible[j].TwitterID
	})
	n := len(eligible)
	half := int(float64(n) * followeeSampleFrac / 2)
	if half < 1 {
		half = 1
	}
	median := n / 2
	sample := map[*AccountPair]bool{}
	// Evenly spaced picks below and above the median: deterministic and
	// spread across the distribution, which is the point of the
	// stratification (representativity, §3.3).
	pick := func(lo, hi, k int) {
		if hi <= lo {
			return
		}
		span := hi - lo
		for i := 0; i < k; i++ {
			idx := lo + (i*span)/k + span/(2*k)
			if idx >= hi {
				idx = hi - 1
			}
			sample[eligible[idx]] = true
		}
	}
	pick(0, median, half)
	pick(median, n, half)
	// All detected switchers join the sample: the §5.3 switch-influence
	// analysis (Fig. 10) needs their ego networks, and at a 4% switch
	// rate a plain 10% sample would catch almost none on scaled-down
	// worlds.
	for _, p := range eligible {
		if p.Moved != nil {
			sample[p] = true
		}
	}

	sampled := make([]*AccountPair, 0, len(sample))
	for p := range sample {
		sampled = append(sampled, p)
	}
	sort.Slice(sampled, func(i, j int) bool { return sampled[i].TwitterID < sampled[j].TwitterID })
	units := make([]unit, len(sampled))
	for i, p := range sampled {
		units[i] = unit{p.TwitterID, func(ctx context.Context) (Record, error) {
			// One record per user: the followees (absent when the Twitter
			// crawl failed) and the following (absent when there is no
			// live Mastodon account or its crawl failed).
			users, err := under(ctx, c, c.twHost, func() ([]UserJSON, error) {
				return c.tw.Following(ctx, p.TwitterID)
			})
			if err != nil {
				return Record{}, err
			}
			refs := make([]FolloweeRef, 0, len(users))
			for _, u := range users {
				refs = append(refs, FolloweeRef{TwitterID: u.ID, Username: u.Username})
			}
			rec := Record{Followees: &refs}
			// Mastodon following of the live account.
			domain, accID := p.Handle.Domain, p.MastodonAccountID
			if p.Moved != nil {
				domain, accID = p.Moved.Handle.Domain, p.Moved.AccountID
			}
			if accID == "" {
				return rec, nil
			}
			accounts, err := under(ctx, c, domain, func() ([]MastoAccountJSON, error) {
				return c.masto.Following(ctx, domain, accID)
			})
			if err != nil {
				return rec, err
			}
			handles := make([]string, 0, len(accounts))
			for _, a := range accounts {
				acct := a.Acct
				if !strings.Contains(acct, "@") {
					acct = acct + "@" + domain
				}
				handles = append(handles, "@"+acct)
			}
			rec.Following = &handles
			return rec, nil
		}}
	}
	return units
}

// activityDomains lists one unit per instance that received a mapped
// migrant: its weekly activity. A down instance drops out of the panel
// with a gap.
func (c *Crawler) activityDomains(ds *Dataset) []unit {
	domains := map[string]bool{}
	for i := range ds.Pairs {
		domains[ds.Pairs[i].Handle.Domain] = true
		if ds.Pairs[i].Moved != nil {
			domains[ds.Pairs[i].Moved.Handle.Domain] = true
		}
	}
	sorted := make([]string, 0, len(domains))
	for d := range domains {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	units := make([]unit, len(sorted))
	for i, domain := range sorted {
		units[i] = unit{domain, func(ctx context.Context) (Record, error) {
			acts, err := under(ctx, c, domain, func() ([]ActivityJSON, error) {
				return c.masto.Activity(ctx, domain)
			})
			if err != nil {
				return Record{}, err
			}
			weeks := make([]WeekActivity, 0, len(acts))
			for _, a := range acts {
				wk, werr := parseUnix(a.Week)
				if werr != nil {
					continue
				}
				st, _ := atoiSafe(a.Statuses)
				lg, _ := atoiSafe(a.Logins)
				rg, _ := atoiSafe(a.Registrations)
				weeks = append(weeks, WeekActivity{Week: wk, Statuses: st, Logins: lg, Registrations: rg})
			}
			sort.Slice(weeks, func(i, j int) bool { return weeks[i].Week.Before(weeks[j].Week) })
			return Record{Weeks: &weeks}, nil
		}}
	}
	return units
}

func atoiSafe(s string) (int, error) {
	var n int
	_, err := fmt.Sscanf(s, "%d", &n)
	return n, err
}

// scoreToxicity labels every crawled post via the Perspective-style
// service (§6.3), one request per post. Workers write scores into a
// local slice, so the phase has no mid-phase checkpoints; its End record
// carries every score. A cancelled phase records the scores it has, so
// abort's flush saves them, and already-scored posts (Toxicity >= 0) are
// skipped, making the phase idempotent across resumes.
func (c *Crawler) scoreToxicity(ctx context.Context, t *tracker) error {
	posts := t.prog.Dataset.timelinePosts()
	scores := make([]float64, len(posts))
	g := httpkit.NewGroup(ctx, c.cfg.Concurrency)
	for i, post := range posts {
		scores[i] = post.Toxicity
		if post.Toxicity >= 0 {
			continue
		}
		g.Go(func(ctx context.Context) error {
			v, err := under(ctx, c, c.toxHost, func() (float64, error) {
				return c.tox.Score(ctx, post.Text)
			})
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return nil // unscored posts keep -1
			}
			scores[i] = v
			return nil
		})
	}
	if err := waitPhase(ctx, g, "toxicity"); err != nil {
		if rerr := t.record(Record{Phase: phaseToxicity, Scores: scores}); rerr != nil {
			return rerr
		}
		return err
	}
	if err := t.end(Record{Phase: phaseToxicity, Scores: scores}); err != nil {
		return err
	}
	c.logf("toxicity scoring done")
	return nil
}
