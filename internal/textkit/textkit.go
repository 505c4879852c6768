// Package textkit generates the synthetic post content for the simulated
// platforms.
//
// The paper's RQ3 analyses content: hashtags used on each platform
// (Fig. 15), similarity between a user's tweets and statuses (Fig. 14),
// tweet sources (Fig. 12) and toxicity (Fig. 16). textkit provides the
// generative side of all of that: a set of topics with vocabularies and
// hashtag pools, post templates, a paraphraser (for "similar but not
// identical" cross-platform posts), and a toxic-phrase injector that
// plants a recoverable toxicity signal for the scoring service to find.
//
// The topic mix mirrors the paper's observation: Twitter content spans
// Entertainment, Celebrities, Politics, Sports, Tech...; Mastodon content
// in the study window is dominated by Fediverse/Migration discussion.
//
// The reading side is one allocation-free word scanner, NextWord, which
// the search index, the toxicity scorer and hashtag counting share.
package textkit

import (
	"strings"

	"flock/internal/randx"
)

// Topic identifies a content topic.
type Topic int

// The topic universe. TopicFediverse and TopicMigration dominate
// Mastodon; the others dominate Twitter, matching Fig. 15.
const (
	TopicFediverse Topic = iota
	TopicMigration
	TopicPolitics
	TopicEntertainment
	TopicCelebrities
	TopicSports
	TopicTech
	TopicAI
	TopicHistory
	TopicGameDev
	TopicPhotography
	TopicMusic
	numTopics
)

// NumTopics is the number of distinct topics.
const NumTopics = int(numTopics)

// String returns the topic name.
func (t Topic) String() string {
	names := [...]string{
		"fediverse", "migration", "politics", "entertainment", "celebrities",
		"sports", "tech", "ai", "history", "gamedev", "photography", "music",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return "unknown"
}

// topicData bundles a topic's vocabulary and hashtag pool.
type topicData struct {
	nouns    []string
	verbs    []string
	extras   []string
	hashtags []string
}

var topics = map[Topic]topicData{
	TopicFediverse: {
		nouns:    []string{"instance", "server", "federation", "timeline", "admin", "moderation", "activitypub", "community", "fediverse", "decentralization"},
		verbs:    []string{"federates", "boosts", "moderates", "hosts", "defederates", "welcomes"},
		extras:   []string{"the local timeline feels cozy", "open source all the way", "pick a server that fits you", "admins are volunteers here", "no algorithm just people"},
		hashtags: []string{"#fediverse", "#mastodon", "#activitypub", "#foss", "#decentralization"},
	},
	TopicMigration: {
		nouns:    []string{"migration", "birdsite", "account", "followers", "move", "alternative", "exodus", "takeover"},
		verbs:    []string{"migrates", "leaves", "joins", "switches", "quits", "arrives"},
		extras:   []string{"finally made the jump", "find me on my new account", "deleting the old app soon", "this place feels different", "bring your friends over"},
		hashtags: []string{"#twittermigration", "#mastodonmigration", "#byebyetwitter", "#goodbyetwitter", "#riptwitter", "#mastodonsocial", "#newhere"},
	},
	TopicPolitics: {
		nouns:    []string{"election", "parliament", "policy", "minister", "vote", "debate", "democracy", "ukraine"},
		verbs:    []string{"announces", "debates", "votes", "resigns", "campaigns", "protests"},
		extras:   []string{"watching the debate live", "this policy will not age well", "count every vote", "solidarity with the people"},
		hashtags: []string{"#standwithukraine", "#generalelectionnow", "#politics", "#ukpolitics", "#vote"},
	},
	TopicEntertainment: {
		nouns:    []string{"episode", "series", "film", "trailer", "season", "finale", "show", "premiere"},
		verbs:    []string{"premieres", "drops", "streams", "returns", "wraps", "surprises"},
		extras:   []string{"no spoilers please", "that finale broke me", "binge watched the whole thing", "the soundtrack is incredible"},
		hashtags: []string{"#nowwatching", "#tv", "#film", "#streaming", "#cinema"},
	},
	TopicCelebrities: {
		nouns:    []string{"interview", "red carpet", "album", "tour", "statement", "rumor", "award"},
		verbs:    []string{"confirms", "denies", "announces", "teases", "cancels", "reveals"},
		extras:   []string{"she looked stunning tonight", "the fans went wild", "what a comeback story", "press tour season again"},
		hashtags: []string{"#barbaraholzer", "#celebrity", "#redcarpet", "#awards"},
	},
	TopicSports: {
		nouns:    []string{"match", "goal", "league", "transfer", "keeper", "final", "derby", "squad"},
		verbs:    []string{"scores", "wins", "loses", "signs", "equalizes", "defends"},
		extras:   []string{"what a strike in the 89th minute", "the ref had a shocker", "cup run continues", "season of our lives"},
		hashtags: []string{"#worldcup2022", "#football", "#matchday", "#premierleague"},
	},
	TopicTech: {
		nouns:    []string{"release", "bug", "kernel", "library", "protocol", "compiler", "database", "outage"},
		verbs:    []string{"ships", "breaks", "patches", "deprecates", "scales", "refactors"},
		extras:   []string{"works on my machine", "read the changelog people", "cache invalidation strikes again", "rewrote it over the weekend"},
		hashtags: []string{"#opensource", "#programming", "#golang", "#linux", "#webdev"},
	},
	TopicAI: {
		nouns:    []string{"model", "dataset", "paper", "benchmark", "training run", "embedding", "transformer"},
		verbs:    []string{"trains", "overfits", "generalizes", "hallucinates", "converges", "scales"},
		extras:   []string{"the loss curve looks suspicious", "new sota on the benchmark", "data quality beats model size", "reviewers wanted more ablations"},
		hashtags: []string{"#machinelearning", "#ai", "#nlp", "#research"},
	},
	TopicHistory: {
		nouns:    []string{"archive", "manuscript", "empire", "treaty", "excavation", "dynasty", "chronicle"},
		verbs:    []string{"uncovers", "documents", "translates", "revisits", "preserves", "dates"},
		extras:   []string{"primary sources or it did not happen", "the archive smelled of dust and time", "a footnote changed the whole argument"},
		hashtags: []string{"#history", "#histodons", "#archives", "#medieval"},
	},
	TopicGameDev: {
		nouns:    []string{"engine", "shader", "sprite", "playtest", "gamejam", "build", "level", "physics"},
		verbs:    []string{"renders", "compiles", "ships", "crashes", "iterates", "polishes"},
		extras:   []string{"the jam deadline is tonight", "fixed the collision bug at 3am", "wishlist it on the store page", "devlog coming this weekend"},
		hashtags: []string{"#gamedev", "#indiedev", "#screenshotsaturday", "#unity"},
	},
	TopicPhotography: {
		nouns:    []string{"lens", "exposure", "print", "negative", "golden hour", "portrait", "landscape"},
		verbs:    []string{"captures", "develops", "frames", "exposes", "edits", "shoots"},
		extras:   []string{"shot on a thirty year old lens", "the light was perfect for ten seconds", "film is not dead"},
		hashtags: []string{"#photography", "#mastoart", "#filmphotography", "#landscape"},
	},
	TopicMusic: {
		nouns:    []string{"track", "vinyl", "setlist", "remix", "chorus", "bassline", "gig"},
		verbs:    []string{"drops", "spins", "samples", "mixes", "covers", "headlines"},
		extras:   []string{"this song has lived in my head all week", "the b side is better", "caught them live last night"},
		hashtags: []string{"#nowplaying", "#bbc6music", "#newmusic", "#vinyl"},
	},
}

// toxicPhrases are appended to posts flagged toxic by the world model.
// They are deliberately mild but lexically distinctive so the scoring
// service (internal/toxsvc) can recover the signal; see that package for
// the matching lexicon.
var toxicPhrases = []string{
	"you are a complete idiot",
	"what a pathetic take, moron",
	"shut up, nobody wants you here",
	"this is garbage and so are you",
	"absolute trash opinion, loser",
	"you disgust me, clown",
}

// ToxicPhrases exposes the injector pool (the toxsvc lexicon is built
// from the same word list).
func ToxicPhrases() []string { return toxicPhrases }

// tailMoods and tailTimes give every post a compositional tail so two
// posts drawn from the same topic template pool are still lexically
// distinct. Without this, template collisions masquerade as
// cross-platform content mirroring and wreck the Fig. 14 calibration.
var tailMoods = []string{
	"no complaints", "what a day", "zero regrets", "pure chaos",
	"quietly thrilled", "mildly annoyed", "deeply satisfying", "oddly calming",
	"still processing", "worth it", "lesson learned", "progress anyway",
	"small victories", "big mood", "future me approves", "never again",
}

var tailTimes = []string{
	"this rainy tuesday", "early this morning", "past midnight", "at lunch",
	"after third coffee", "on the train", "mid-build", "between meetings",
	"this long weekend", "before the deadline", "way too late", "before dinner",
}

// tailMarkers widen the tail combination space (12x12x64); without them
// two posts drawing the same mood+time tail read as near-duplicates.
var tailMarkers = func() []string {
	adjs := []string{"small", "odd", "quiet", "bold", "slow", "fresh", "late", "rare"}
	nouns := []string{"win", "note", "thought", "update", "detour", "ritual", "habit", "experiment"}
	out := make([]string, 0, len(adjs)*len(nouns))
	for _, a := range adjs {
		for _, n := range nouns {
			out = append(out, "a "+a+" "+n)
		}
	}
	return out
}()

// neutralExtras is a topic-free phrase pool mixed into posts so that
// same-topic posts do not always draw from the same five stock phrases.
var neutralExtras = []string{
	"today went sideways fast", "the group chat agrees", "my notes are a disaster",
	"the plan survived contact", "everyone has opinions", "the draft is done",
	"i changed my mind twice", "the list keeps growing", "someone owes me lunch",
	"the shortcut cost an hour", "the backlog won today", "good news for once",
	"the weather ruined nothing", "the answer was obvious", "nobody saw that coming",
	"the second attempt landed",
}

// extraMods multiply the per-topic extras pools (5 phrases x 16 mods).
var extraMods = []string{
	"as usual", "once more", "against all odds", "for the record",
	"without a doubt", "in the best way", "to be fair", "all over again",
	"like clockwork", "by some miracle", "for better or worse", "no regrets",
	"with feeling", "in slow motion", "at full volume", "off the record",
}

// Generator produces post text deterministically from a randx source.
type Generator struct {
	rng *randx.Source
}

// NewGenerator returns a text generator drawing from rng.
func NewGenerator(rng *randx.Source) *Generator {
	return &Generator{rng: rng}
}

// PostOpts controls a generated post.
type PostOpts struct {
	Topic Topic
	// Hashtags is how many hashtags to append (drawn from the topic pool,
	// deduplicated).
	Hashtags int
	// Toxic plants a toxic phrase in the post.
	Toxic bool
}

// Post generates one post.
func (g *Generator) Post(o PostOpts) string {
	td := topics[o.Topic]
	// A post is 70 to 200 bytes long, so one 192-byte buffer holds almost
	// every one.
	var b strings.Builder
	b.Grow(192)
	// The stock extra is crossed with a modifier so the effective phrase
	// pool per topic is ~80, not ~5: a single shared stock phrase must
	// not be enough to push two unrelated posts over the similarity
	// threshold (see the Fig. 14 calibration notes in EXPERIMENTS.md).
	base := td.extras
	if g.rng.Bool(0.5) {
		base = neutralExtras
	}
	extra := randx.Pick(g.rng, base) + " " + randx.Pick(g.rng, extraMods)
	switch g.rng.Intn(3) {
	case 0:
		b.WriteString("the ")
		b.WriteString(randx.Pick(g.rng, td.nouns))
		b.WriteString(" ")
		b.WriteString(randx.Pick(g.rng, td.verbs))
		b.WriteString(" and ")
		b.WriteString(extra)
	case 1:
		b.WriteString(extra)
		b.WriteString(", the ")
		b.WriteString(randx.Pick(g.rng, td.nouns))
		b.WriteString(" ")
		b.WriteString(randx.Pick(g.rng, td.verbs))
	default:
		b.WriteString("thinking about the ")
		b.WriteString(randx.Pick(g.rng, td.nouns))
		b.WriteString(" again: ")
		b.WriteString(extra)
	}
	b.WriteString(", ")
	b.WriteString(randx.Pick(g.rng, tailMarkers))
	b.WriteString(" ")
	b.WriteString(randx.Pick(g.rng, tailTimes))
	b.WriteString(" ")
	b.WriteString(randx.Pick(g.rng, tailMoods))
	if o.Toxic {
		b.WriteString(". ")
		b.WriteString(randx.Pick(g.rng, toxicPhrases))
	}
	if o.Hashtags > 0 {
		seen := map[string]bool{}
		for i := 0; i < o.Hashtags && i < len(td.hashtags); i++ {
			tag := randx.Pick(g.rng, td.hashtags)
			if seen[tag] {
				continue
			}
			seen[tag] = true
			b.WriteString(" ")
			b.WriteString(tag)
		}
	}
	return b.String()
}

// Paraphrase lightly rewrites text: it swaps a few words for synonyms-ish
// fillers and may drop a trailing token, keeping most of the token
// multiset so hashed-embedding cosine stays above the similarity
// threshold, but breaking exact identity.
func (g *Generator) Paraphrase(text string) string {
	words := strings.Fields(text)
	if len(words) == 0 {
		return text
	}
	fillers := []string{"really", "honestly", "truly", "definitely"}
	// Insert one filler at a random position.
	pos := g.rng.Intn(len(words))
	out := make([]string, 0, len(words)+1)
	out = append(out, words[:pos]...)
	out = append(out, randx.Pick(g.rng, fillers))
	out = append(out, words[pos:]...)
	// Occasionally drop the final non-hashtag word.
	if len(out) > 6 && g.rng.Bool(0.3) && !strings.HasPrefix(out[len(out)-1], "#") {
		out = out[:len(out)-1]
	}
	return strings.Join(out, " ")
}

// MigrationAnnouncement generates the tweet a migrating user posts to
// advertise their new Mastodon account. style controls where the handle
// appears, mirroring §3.1's two match sources:
//
//	0: handle in tweet text as @user@host
//	1: profile URL in tweet text (https://host/@user)
//	2: plain farewell with keywords only (handle is in the bio instead)
func (g *Generator) MigrationAnnouncement(style int, username, host string) string {
	var b strings.Builder
	openers := []string{
		"that's it, i'm done with this place.",
		"good bye twitter, it was a ride.",
		"bye bye twitter — see you on the other side.",
		"moving to mastodon like everyone else.",
		"the takeover was the last straw for me.",
	}
	b.WriteString(randx.Pick(g.rng, openers))
	switch style {
	case 0:
		b.WriteString(" find me at @")
		b.WriteString(username)
		b.WriteString("@")
		b.WriteString(host)
	case 1:
		b.WriteString(" new home: https://")
		b.WriteString(host)
		b.WriteString("/@")
		b.WriteString(username)
	default:
		b.WriteString(" mastodon details in my bio.")
	}
	tags := []string{"#TwitterMigration", "#Mastodon", "#ByeByeTwitter", "#GoodByeTwitter", "#MastodonMigration", "#RIPTwitter", "#MastodonSocial"}
	b.WriteString(" ")
	b.WriteString(randx.Pick(g.rng, tags))
	if g.rng.Bool(0.4) {
		b.WriteString(" ")
		b.WriteString(randx.Pick(g.rng, tags))
	}
	return b.String()
}

// hashtagCut strips trailing punctuation from a hashtag ("#tag," is #tag).
var hashtagCut = NewCut("", ".,;:!?")

// NextHashtag is the hashtag cursor over text, in the form of NextWord: it
// returns the first lowercase hashtag at or after byte offset i, stripped
// of trailing ".,;:!?", and the offset to resume from, or next < 0 when
// text holds no more. A hashtag is a word that starts with '#' and has
// more than one byte. tag lives in buf's storage (or a larger slice when
// buf is too small) and is valid until the next call. To list a post's
// hashtags:
//
//	var arr [64]byte
//	for tag, i := NextHashtag(text, 0, arr[:0]); i >= 0; tag, i = NextHashtag(text, i, arr[:0]) {
//		...
//	}
func NextHashtag(text string, i int, buf []byte) (tag []byte, next int) {
	for {
		tag, i = NextWord(text, i, hashtagCut, buf)
		if i < 0 || len(tag) > 1 && tag[0] == '#' {
			return tag, i
		}
	}
}
