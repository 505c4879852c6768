// Package world generates the synthetic universe the measurement pipeline
// is run against: a Twitter-like population with a follow graph, a set of
// Mastodon instances, a migration process with social contagion, posting
// activity on both platforms, cross-posting tools, instance switching and
// toxicity ground truth.
//
// The paper measured a real, closed dataset (§3: 136,009 migrated users,
// 2,879 instances, 16.1M tweets, 5.7M statuses). world replaces it with a
// parameterised generative model whose behavioural knobs are calibrated
// to the paper's reported statistics, scaled down by Config.NMigrants.
// The pipeline then *measures* this world exclusively through the
// simulated HTTP services (internal/birdsite, internal/fediverse, ...) —
// the analysis never reads world state directly, so methodological errors
// in the crawler show up as paper-vs-measured divergence, exactly as they
// would have for the authors.
//
// Everything is deterministic in Config.Seed.
package world

import (
	"time"

	"flock/internal/graph"
	"flock/internal/ids"
	"flock/internal/textkit"
	"flock/internal/vclock"
)

// Config parameterizes world generation. The zero value is unusable; use
// DefaultConfig and override.
type Config struct {
	// Seed drives all randomness.
	Seed uint64

	// NMigrants is the approximate number of Twitter users who migrate to
	// Mastodon during the study (the paper's 136,009, scaled).
	NMigrants int

	// PopulationFactor scales the total Twitter population relative to
	// NMigrants. Non-migrants matter: they are the reluctant majority of
	// each migrant's ego network (§5.2 finds only 5.99% of followees
	// migrate).
	PopulationFactor int

	// BystanderFraction is the fraction of non-migrants who tweet
	// migration keywords without migrating (the paper collected tweets
	// from 1.02M users but mapped only 136k).
	BystanderFraction float64

	// NInstances is the number of Mastodon instances that exist. The
	// index service knows all of them; migrants reach a subset.
	NInstances int

	// MeanOutDegree is the Twitter graph's mean out-degree. Real medians
	// (744 followers / 787 followees) are scaled down; the ratio between
	// Twitter and Mastodon network sizes is what Fig. 7 preserves.
	MeanOutDegree float64

	// Calibration constants, defaulted to the paper's findings.

	// SameUsernameProb: 72% of migrants reuse their Twitter username.
	SameUsernameProb float64
	// VerifiedProb: 4% of migrants are legacy-verified.
	VerifiedProb float64
	// PreTakeoverAccountProb: 21% of discovered Mastodon accounts predate
	// the takeover.
	PreTakeoverAccountProb float64
	// SwitchProb: 4.09% of migrants switch instance.
	SwitchProb float64
	// CrossposterProb: 5.73% of migrants use a cross-posting tool.
	CrossposterProb float64
	// SuspendedProb / DeletedProb / ProtectedProb: Twitter timeline crawl
	// failure taxonomy (§3.2: 0.08% / 2.26% / 2.78%).
	SuspendedProb float64
	DeletedProb   float64
	ProtectedProb float64
	// SilentProb: 9.20% of migrants never post a status.
	SilentProb float64
	// DownCoverage: fraction of migrants whose instance is down at crawl
	// time (11.58%).
	DownCoverage float64
	// TweetsPerDay / StatusesPerDay are mean posting rates.
	TweetsPerDay   float64
	StatusesPerDay float64
	// ToxicTweetRate / ToxicStatusRate are the target mean per-user toxic
	// post fractions (4.02% / 2.07%).
	ToxicTweetRate  float64
	ToxicStatusRate float64
	// MigrationTarget is the fraction of the population that migrates
	// (NMigrants / population, derived; kept for hazard calibration).
	migrationTarget float64
}

// DefaultConfig returns a world sized around nMigrants migrated users
// with all behavioural constants set to the paper's reported values.
func DefaultConfig(nMigrants int) Config {
	if nMigrants < 50 {
		nMigrants = 50
	}
	nInst := nMigrants / 5
	if nInst < 40 {
		nInst = 40
	}
	if nInst > 2879 {
		nInst = 2879
	}
	return Config{
		Seed:              1,
		NMigrants:         nMigrants,
		PopulationFactor:  8,
		BystanderFraction: 0.35,
		NInstances:        nInst,
		MeanOutDegree:     35,
		// The paper's 72% is measured over the *mapped* population, and
		// the tweet-text match path only accepts identical usernames, so
		// mapping inflates the share. A 61.5% prior measures as ~72%
		// through the §3.1 funnel.
		SameUsernameProb:       0.615,
		VerifiedProb:           0.04,
		PreTakeoverAccountProb: 0.21,
		SwitchProb:             0.0409,
		CrossposterProb:        0.0573,
		SuspendedProb:          0.0008,
		DeletedProb:            0.0226,
		ProtectedProb:          0.0278,
		SilentProb:             0.092,
		DownCoverage:           0.1158,
		TweetsPerDay:           2.0,
		StatusesPerDay:         1.4,
		ToxicTweetRate:         0.0402,
		ToxicStatusRate:        0.0207,
	}
}

// InstanceCategory classifies instances.
type InstanceCategory int

const (
	// CatFlagship: mastodon.social and the other giant general servers.
	CatFlagship InstanceCategory = iota
	// CatGeneral: mid-size general-purpose servers.
	CatGeneral
	// CatTopical: topic-specific servers (sigmoid.social, historians.social, ...).
	CatTopical
	// CatPersonal: single-user instances run by their only member.
	CatPersonal
)

// String names the category.
func (c InstanceCategory) String() string {
	switch c {
	case CatFlagship:
		return "flagship"
	case CatGeneral:
		return "general"
	case CatTopical:
		return "topical"
	case CatPersonal:
		return "personal"
	}
	return "unknown"
}

// Instance is one Mastodon server.
type Instance struct {
	ID       int
	Domain   string
	Category InstanceCategory
	// Topic applies to topical and personal instances.
	Topic textkit.Topic
	// NativeUsers is the pre-takeover local population (never crawled
	// individually; drives baseline weekly activity and instance size).
	NativeUsers int
	// NewcomerUsers is the post-takeover registration wave beyond the
	// mapped migrants (Mastodon reported 1M+ sign-ups; we map only some).
	NewcomerUsers int
	// Down marks the instance unreachable at crawl time.
	Down bool
	// OwnerUser is the migrant who runs this personal instance (-1 for
	// non-personal instances).
	OwnerUser int
}

// TotalUsers is the instance population visible to the index/activity
// endpoints at crawl time: natives + newcomers + mapped migrants.
func (inst *Instance) TotalUsers(migrantsHere int) int {
	return inst.NativeUsers + inst.NewcomerUsers + migrantsHere
}

// CrossposterTool identifies a cross-posting bridge.
type CrossposterTool int

const (
	// NoTool: the user does not cross-post.
	NoTool CrossposterTool = iota
	// ToolCrossposter is the "Mastodon Twitter Crossposter".
	ToolCrossposter
	// ToolMoa is the "Moa Bridge".
	ToolMoa
)

// SourceName returns the tweet "source" string of the tool.
func (t CrossposterTool) SourceName() string {
	switch t {
	case ToolCrossposter:
		return "Mastodon Twitter Crossposter"
	case ToolMoa:
		return "Moa Bridge"
	}
	return ""
}

// User is one member of the Twitter population. Migration fields are only
// meaningful when Migrated is true.
type User struct {
	ID          int
	TwitterID   ids.Snowflake
	Username    string
	DisplayName string
	Topic       textkit.Topic
	Verified    bool
	// TwitterCreatedAt is the account age anchor (median ~11.5 years).
	TwitterCreatedAt time.Time

	// Account states at crawl time (§3.2 failure taxonomy).
	Suspended bool
	Deleted   bool
	Protected bool

	// Bystander users tweet migration keywords but never migrate.
	Bystander bool

	// Dedication in (0, 1] expresses how invested the user is in the new
	// platform; it drives status rate, Mastodon networking and the choice
	// of small/personal instances (the Fig. 6 activity paradox).
	Dedication float64

	// toxicity propensity per platform (probability a post is toxic).
	ToxicTweetP  float64
	ToxicStatusP float64

	// Migration.
	Migrated bool
	// MigratedAt is the day the user started using Mastodon (announced).
	MigratedAt time.Time
	// MastodonCreatedAt is the account creation time; for 21% of migrants
	// this predates the takeover.
	MastodonCreatedAt time.Time
	MastodonUsername  string
	// FirstInstance / SecondInstance index into World.Instances;
	// SecondInstance is -1 unless the user switched.
	FirstInstance  int
	SecondInstance int
	SwitchedAt     time.Time
	// AnnounceStyle: 0 handle in tweet text, 1 profile URL in tweet text,
	// 2 handle only in bio (§3.1's hierarchical match paths).
	AnnounceStyle int
	// HandleInBio mirrors §3.1: most migrants put the handle in their
	// profile metadata.
	HandleInBio bool
	// Tool is the cross-posting bridge, if any.
	Tool CrossposterTool
	// MirrorRate is the fraction of statuses mirrored from tweets for
	// manual mirrorers (crossposters mirror via Tool instead).
	MirrorRate float64
	// Silent users created an account but never posted.
	Silent bool

	// Mastodon ego network (indices into World.Users, migrants only) plus
	// native followers/followees not individually modelled.
	MastodonFollowees []int
	MastodonFollowers []int
	NativeFollowers   int
	NativeFollowees   int
}

// CurrentInstance returns the instance the user is on at time t,
// accounting for switching.
func (u *User) CurrentInstance(t time.Time) int {
	if !u.Migrated {
		return -1
	}
	if u.SecondInstance >= 0 && !t.Before(u.SwitchedAt) {
		return u.SecondInstance
	}
	return u.FirstInstance
}

// FinalInstance is the instance at crawl time.
func (u *User) FinalInstance() int {
	return u.CurrentInstance(vclock.CrawlTime)
}

// Handle returns the canonical @user@host handle on instance inst.
func (u *User) Handle(domain string) string {
	return "@" + u.MastodonUsername + "@" + domain
}

// TweetKind labels generated tweets for ground-truth bookkeeping (the
// crawler never sees it).
type TweetKind int

const (
	// KindNormal is ordinary topical content.
	KindNormal TweetKind = iota
	// KindAnnouncement advertises the user's Mastodon account.
	KindAnnouncement
	// KindKeyword discusses the migration (keywords, no handle).
	KindKeyword
)

// Tweet is one Twitter post.
type Tweet struct {
	ID     ids.Snowflake
	UserID int
	Time   time.Time
	Text   string
	Source string
	Kind   TweetKind
	Toxic  bool // ground truth; the scorer recovers it from the text
}

// Status is one Mastodon post.
type Status struct {
	ID         ids.Snowflake
	UserID     int
	InstanceID int
	Time       time.Time
	Text       string
	// MirroredFrom is the index into the user's tweet slice when this
	// status is a bridge/manual mirror, else -1.
	MirroredFrom int
	Toxic        bool
}

// WeeklyActivity is one bucket of the Mastodon activity endpoint.
type WeeklyActivity struct {
	WeekStart     time.Time
	Statuses      int
	Logins        int
	Registrations int
}

// World is the fully generated universe.
type World struct {
	Cfg       Config
	Users     []*User
	Migrants  []int // indices of migrated users, ascending
	Instances []*Instance
	Graph     *graph.Graph // Twitter follow graph over Users

	// TweetsByUser[u] is u's timeline, ascending in time. Non-posting
	// users have nil slices.
	TweetsByUser [][]Tweet
	// StatusesByUser[u] is the Mastodon timeline of migrant u.
	StatusesByUser [][]Status

	// Activity[i] is instance i's weekly activity series.
	Activity [][]WeeklyActivity

	// MigrantsPerInstance[i] counts mapped migrants whose final account
	// is on instance i.
	MigrantsPerInstance []int
}

// TweetCount returns the total number of tweets.
func (w *World) TweetCount() int {
	n := 0
	for _, ts := range w.TweetsByUser {
		n += len(ts)
	}
	return n
}

// StatusCount returns the total number of statuses.
func (w *World) StatusCount() int {
	n := 0
	for _, ss := range w.StatusesByUser {
		n += len(ss)
	}
	return n
}
