package crawler

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"flock/internal/httpkit"
)

// ProgressVersion is the checkpoint schema version Save stamps.
//
// v1 files predate the Version field (they decode as 0) and carry no
// health snapshot; they still load cleanly and resume with an empty
// registry. v2 adds the persisted per-host health registry. v3 keeps the
// v2 snapshot layout and lets a checkpoint follow the snapshot with the
// Records applied since (see store.FileCheckpoint). v4 replaces the four
// per-phase done sets, and the timeline phases' use of the dataset as
// theirs, with the one Done set; UnmarshalJSON reads v1–v3 snapshots
// into it. v5 keeps each unit's gap and quarantine skip, which its
// record carries, in Gaps and Skipped across phase ends, so a resumed
// crawl reports the whole crawl. v1–v4 files load with both empty: the
// gaps recorded before their kill are unknown. Decoders refuse versions
// newer than this constant rather than silently dropping fields they do
// not understand.
const ProgressVersion = 5

// The §3 pipeline's phases, in execution order. Progress.Phase holds the
// highest phase that has fully completed, so a resumed crawl re-enters
// the first incomplete phase and skips the units that already finished.
const (
	phaseNone      = iota
	phaseIndex     // §3.1 instance index
	phaseTweets    // §3.1 tweet collection
	phaseMapping   // §3.1 account mapping
	phaseTwitterTL // §3.2 Twitter timelines
	phaseMastoTL   // §3.2 Mastodon timelines
	phaseFollowees // §3.3 followee sample
	phaseActivity  // §3.1 weekly activity
	phaseToxicity  // §6.3 toxicity scoring
)

// SeenTweet is a phase-2 accumulation entry: a tweet as found by a query,
// with the winning query class so the dedup rule survives a resume.
type SeenTweet struct {
	Tweet TweetJSON  `json:"tweet"`
	Class QueryClass `json:"class"`
}

// Record is one completed work unit, or the end of a phase. Applying
// records (Progress.Apply) is the only way the crawler changes a
// progress; the package comment lists each phase's records. A unit
// record names its unit in Key; an End record, and the scores a
// cancelled toxicity phase saves, have no key. A unit that failed
// terminally carries its gap, and the host that the host gate skipped
// when that failure is a quarantine skip.
//
// The slice payloads behind pointers keep present-versus-absent through
// JSON: a nil pointer adds no dataset entry, a pointer to an empty slice
// adds an empty one. The crawler never points them at a nil slice.
type Record struct {
	Phase int    `json:"phase"`
	Key   string `json:"key,omitempty"`
	End   bool   `json:"end,omitempty"`
	// Gap is the unit's terminal failure as its error text.
	Gap string `json:"gap,omitempty"`
	// SkippedHost is the quarantined host whose skip is the gap.
	SkippedHost string `json:"skipped_host,omitempty"`

	Instances  *[]IndexedInstance `json:"instances,omitempty"`
	Class      QueryClass         `json:"class,omitempty"`
	Tweets     []TweetJSON        `json:"tweets,omitempty"`
	Pair       *AccountPair       `json:"pair,omitempty"`
	TwitterTL  *TwitterTimeline   `json:"twitter_tl,omitempty"`
	MastodonTL *MastodonTimeline  `json:"mastodon_tl,omitempty"`
	Followees  *[]FolloweeRef     `json:"followees,omitempty"`
	Following  *[]string          `json:"following,omitempty"`
	Weeks      *[]WeekActivity    `json:"weeks,omitempty"`
	// Scores holds one toxicity score per timeline post, in
	// Dataset.timelinePosts order; -1 leaves a post unscored.
	Scores []float64 `json:"scores,omitempty"`
}

// Progress is the serializable crawl state a Checkpoint persists. It
// carries the partial dataset plus the completion set that lets a
// resumed Crawler.Run skip finished work. The zero value (via
// newProgress) is a fresh crawl.
type Progress struct {
	// Version is the checkpoint schema version this progress was saved
	// under (see ProgressVersion); zero for v1 files.
	Version int `json:"version,omitempty"`
	// Phase is the highest fully completed phase.
	Phase int `json:"phase"`
	// Health is the persisted per-host health registry snapshot (schema
	// v2): breaker positions, quarantine ages and the error taxonomy
	// survive the run, so a resumed crawl plans around known-dead hosts
	// instead of re-learning them dial by dial.
	Health []httpkit.HostHealth `json:"health,omitempty"`
	// Dataset accumulates crawl output across phases.
	Dataset *Dataset `json:"dataset"`
	// SeenTweets is the phase-2 dedup accumulator, keyed by tweet ID;
	// cleared when the phase completes.
	SeenTweets map[string]SeenTweet `json:"seen_tweets,omitempty"`
	// Done marks the finished units of the phase in progress by key,
	// failed ones included; cleared when the phase completes (schema v4).
	Done map[string]bool `json:"done"`
	// Gaps maps phase to unit key to the gap of every unit that failed
	// terminally, and Skipped maps host to the units whose gap is its
	// quarantine skip. Both outlive their phase (schema v5).
	Gaps    map[int]map[string]string `json:"gaps,omitempty"`
	Skipped map[string]int            `json:"skipped,omitempty"`

	// seq counts the records applied since the progress was created or
	// decoded; journal holds the last len(journal) of them while
	// journaling is on.
	seq        int
	journal    []Record
	journaling bool
}

func newProgress() *Progress {
	p := &Progress{Version: ProgressVersion, Dataset: NewDataset()}
	p.normalize()
	return p
}

// Clone deep-copies the progress through its JSON form, which is also
// the snapshot layout FileCheckpoint writes, so every Checkpoint
// implementation hands out isolated copies with the same serialization
// semantics. The copy keeps no journal. A nil progress clones to nil.
func (p *Progress) Clone() (*Progress, error) {
	if p == nil {
		return nil, nil
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("crawler: clone progress: %w", err)
	}
	out := &Progress{}
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("crawler: clone progress: %w", err)
	}
	return out, nil
}

// UnmarshalJSON decodes a progress of any schema version. Before v4 the
// tweets, mapping, followees and activity phases each kept their own
// done set, and the timeline phases took the dataset's timelines as
// theirs. Every version cleared a phase's set when the phase ended, so a
// snapshot without a "done" set takes the one of the phase in progress.
func (p *Progress) UnmarshalJSON(raw []byte) error {
	type plain Progress
	v := struct {
		*plain
		DoneQueries   map[string]bool `json:"done_queries"`
		DoneAuthors   map[string]bool `json:"done_authors"`
		DoneFollowees map[string]bool `json:"done_followees"`
		DoneActivity  map[string]bool `json:"done_activity"`
	}{plain: (*plain)(p)}
	if err := json.Unmarshal(raw, &v); err != nil {
		return err
	}
	if p.Done != nil {
		return nil
	}
	switch d, next := p.Dataset, p.Phase+1; {
	case next == phaseTweets:
		p.Done = v.DoneQueries
	case next == phaseMapping:
		p.Done = v.DoneAuthors
	case next == phaseTwitterTL && d != nil:
		p.Done = keySet(d.TwitterTimelines)
	case next == phaseMastoTL && d != nil:
		p.Done = keySet(d.MastodonTimelines)
	case next == phaseFollowees:
		p.Done = v.DoneFollowees
	case next == phaseActivity:
		p.Done = v.DoneActivity
	}
	if p.Done == nil {
		p.Done = map[string]bool{}
	}
	return nil
}

func keySet[V any](m map[string]V) map[string]bool {
	set := make(map[string]bool, len(m))
	for k := range m {
		set[k] = true
	}
	return set
}

// normalize re-initializes nil maps (JSON round-trips drop empties).
func (p *Progress) normalize() {
	if p.Dataset == nil {
		p.Dataset = NewDataset()
	}
	d := p.Dataset
	if d.TwitterTimelines == nil {
		d.TwitterTimelines = map[string]*TwitterTimeline{}
	}
	if d.MastodonTimelines == nil {
		d.MastodonTimelines = map[string]*MastodonTimeline{}
	}
	if d.TwitterFollowees == nil {
		d.TwitterFollowees = map[string][]FolloweeRef{}
	}
	if d.MastodonFollowing == nil {
		d.MastodonFollowing = map[string][]string{}
	}
	if d.Activity == nil {
		d.Activity = map[string][]WeekActivity{}
	}
	if p.SeenTweets == nil {
		p.SeenTweets = map[string]SeenTweet{}
	}
	if p.Done == nil {
		p.Done = map[string]bool{}
	}
	if p.Gaps == nil {
		p.Gaps = map[int]map[string]string{}
	}
	if p.Skipped == nil {
		p.Skipped = map[string]int{}
	}
}

// Apply applies one record to the progress, live and when a checkpoint
// replays its records, so a resumed progress equals the saved one by
// construction. The record must belong to the phase after p.Phase, and
// each keyed unit completes once; any other record is an error and
// leaves p unchanged. While journaling, p also keeps the record.
func (p *Progress) Apply(r Record) error {
	p.normalize()
	if err := p.apply(r); err != nil {
		return fmt.Errorf("crawler: phase %d record %q at phase %d: %w", r.Phase, r.Key, p.Phase, err)
	}
	p.seq++
	if p.journaling {
		p.journal = append(p.journal, r)
	}
	return nil
}

func (p *Progress) apply(r Record) error {
	if r.Phase != p.Phase+1 {
		return errors.New("out of phase")
	}
	if r.End {
		return p.endPhase(r)
	}
	d := p.Dataset
	if r.Phase == phaseToxicity {
		// The scores a cancelled phase had fetched, keyless: the phase
		// restarts and skips the posts they score.
		return d.setScores(r.Scores)
	}
	if p.Done[r.Key] {
		return errors.New("unit already complete")
	}
	switch r.Phase {
	case phaseTweets:
		for _, tw := range r.Tweets {
			prev, dup := p.SeenTweets[tw.ID]
			// Instance-link class wins on dedup: a tweet carrying a handle
			// link is strictly more informative. The rule is
			// order-independent, so resumed runs converge to the same
			// corpus.
			if !dup || (prev.Class == ClassKeyword && r.Class == ClassInstanceLink) {
				p.SeenTweets[tw.ID] = SeenTweet{Tweet: tw, Class: r.Class}
			}
		}
	case phaseMapping:
		if r.Pair != nil {
			d.Pairs = append(d.Pairs, *r.Pair)
		}
	case phaseTwitterTL:
		if r.TwitterTL == nil {
			return errors.New("no timeline")
		}
		d.TwitterTimelines[r.Key] = r.TwitterTL
	case phaseMastoTL:
		if r.MastodonTL == nil {
			return errors.New("no timeline")
		}
		d.MastodonTimelines[r.Key] = r.MastodonTL
	case phaseFollowees:
		if r.Followees != nil {
			d.TwitterFollowees[r.Key] = *r.Followees
		}
		if r.Following != nil {
			d.MastodonFollowing[r.Key] = *r.Following
		}
	case phaseActivity:
		if r.Weeks != nil {
			d.Activity[r.Key] = *r.Weeks
		}
	default:
		return errors.New("phase has no unit records")
	}
	if r.Gap != "" {
		if p.Gaps[r.Phase] == nil {
			p.Gaps[r.Phase] = map[string]string{}
		}
		p.Gaps[r.Phase][r.Key] = r.Gap
	}
	if r.SkippedHost != "" {
		p.Skipped[r.SkippedHost]++
	}
	p.Done[r.Key] = true
	return nil
}

// endPhase applies an End record: the phase's closing step, then Phase
// advances.
func (p *Progress) endPhase(r Record) error {
	d := p.Dataset
	switch r.Phase {
	case phaseIndex:
		d.Instances = nil
		if r.Instances != nil {
			d.Instances = *r.Instances
		}
	case phaseTweets:
		for _, h := range p.SeenTweets {
			at, ok := parseTweetTime(h.Tweet.CreatedAt)
			if !ok {
				continue
			}
			d.CollectedTweets = append(d.CollectedTweets, CollectedTweet{
				ID:       h.Tweet.ID,
				AuthorID: h.Tweet.AuthorID,
				Time:     at,
				Text:     h.Tweet.Text,
				Source:   h.Tweet.Source,
				Class:    h.Class,
			})
		}
		sort.Slice(d.CollectedTweets, func(i, j int) bool {
			a, b := d.CollectedTweets[i], d.CollectedTweets[j]
			if !a.Time.Equal(b.Time) {
				return a.Time.Before(b.Time)
			}
			return a.ID < b.ID
		})
		p.SeenTweets = map[string]SeenTweet{}
	case phaseMapping:
		sort.Slice(d.Pairs, func(i, j int) bool { return d.Pairs[i].TwitterID < d.Pairs[j].TwitterID })
	case phaseTwitterTL, phaseMastoTL, phaseFollowees, phaseActivity:
	case phaseToxicity:
		if err := d.setScores(r.Scores); err != nil {
			return err
		}
	default:
		return errors.New("unknown phase")
	}
	p.Done = map[string]bool{}
	p.Phase = r.Phase
	return nil
}

// setScores sets every timeline post's toxicity score, in timelinePosts
// order. The posts belong to the timelines' unit records too. One still
// unwritten is then saved with these scores, which replaying the scores'
// record sets again.
func (d *Dataset) setScores(scores []float64) error {
	posts := d.timelinePosts()
	if len(scores) != len(posts) {
		return fmt.Errorf("%d scores for %d posts", len(scores), len(posts))
	}
	for i, post := range posts {
		post.Toxicity = scores[i]
	}
	return nil
}

// timelinePosts lists every timeline post in a fixed order: Twitter
// timelines, then Mastodon timelines, each by user ID, posts in timeline
// order. The toxicity phase's scores follow it.
func (d *Dataset) timelinePosts() []*Post {
	var posts []*Post
	add := func(tl []Post) {
		for i := range tl {
			posts = append(posts, &tl[i])
		}
	}
	for _, id := range slices.Sorted(maps.Keys(d.TwitterTimelines)) {
		if tl := d.TwitterTimelines[id]; tl != nil {
			add(tl.Posts)
		}
	}
	for _, id := range slices.Sorted(maps.Keys(d.MastodonTimelines)) {
		if tl := d.MastodonTimelines[id]; tl != nil {
			add(tl.Posts)
		}
	}
	return posts
}

// StartJournal makes the progress keep every record it applies from now
// on, until a Checkpoint that has written them calls TrimJournal. The
// crawler journals only when a Checkpoint is configured, and a
// journaling progress changes only through Apply.
func (p *Progress) StartJournal() { p.journaling = true }

// Seq is the number of records applied since the progress was created
// or decoded.
func (p *Progress) Seq() int { return p.seq }

// Journal returns the journaled records applied after the first `from`,
// oldest first. ok is false when the progress is not journaling or has
// already trimmed some of them.
func (p *Progress) Journal(from int) (recs []Record, ok bool) {
	first := p.seq - len(p.journal)
	if !p.journaling || from < first || from > p.seq {
		return nil, false
	}
	return p.journal[from-first:], true
}

// TrimJournal drops the journaled records numbered below seq: a
// Checkpoint calls it once they are durable.
func (p *Progress) TrimJournal(seq int) {
	n := min(seq, p.seq) - (p.seq - len(p.journal))
	if n <= 0 {
		return
	}
	kept := copy(p.journal, p.journal[n:])
	clear(p.journal[kept:])
	p.journal = p.journal[:kept]
}

// Checkpoint persists crawl progress so a killed or cancelled Run can
// resume where it stopped. Load returns (nil, nil) when no checkpoint
// exists yet. Implementations must tolerate Save being called from the
// crawl's worker goroutines (calls are serialized by the crawler). The
// crawler's progress journals its records (Progress.Journal); Save may
// persist just the records since its last write, and should TrimJournal
// what it has made durable. Load may remember the file it read, so that
// Save of the progress it returned appends to that file.
type Checkpoint interface {
	Load() (*Progress, error)
	Save(*Progress) error
}

// MemCheckpoint is an in-memory Checkpoint for tests and single-process
// pipelines. The zero value is ready to use. Save and Load both deep-copy
// the progress, matching FileCheckpoint's serialize semantics: the stored
// snapshot is frozen at Save time, not a live alias of the tracker's
// still-mutating *Progress. It stores whole snapshots, so Save trims the
// progress's journal.
type MemCheckpoint struct {
	mu    sync.Mutex
	data  *Progress
	saves int
}

// Load returns a copy of the last saved progress (nil when never saved).
func (m *MemCheckpoint) Load() (*Progress, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.data.Clone()
}

// Save stores a snapshot of the progress.
func (m *MemCheckpoint) Save(p *Progress) error {
	cp, err := p.Clone()
	if err != nil {
		return err
	}
	p.TrimJournal(p.Seq())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data = cp
	m.saves++
	return nil
}

// Saves reports how many times Save has been called.
func (m *MemCheckpoint) Saves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}

// tracker serializes all changes to the in-flight Progress, which it
// makes only through Progress.Apply, and drives checkpoint saves: one
// Save per `every` completed units, plus a flush at every phase boundary.
// Crawler.Report reads the progress under the same lock.
type tracker struct {
	mu      sync.Mutex
	ckpt    Checkpoint // nil: no persistence
	every   int
	pending int
	prog    *Progress
	resumed bool                    // prog came from the checkpoint
	health  *httpkit.HealthRegistry // nil: no health persistence
}

// snapshotHealth refreshes the progress's registry snapshot so every
// saved checkpoint carries the breaker/quarantine state current at save
// time. Caller holds t.mu.
func (t *tracker) snapshotHealth() {
	if t.health != nil {
		t.prog.Health = t.health.Snapshot()
	}
}

// record applies r under the tracker lock. A unit record counts toward
// the periodic save; a phase end is followed by a flush instead.
func (t *tracker) record(r Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.prog.Apply(r); err != nil {
		return err
	}
	if t.ckpt == nil || r.End {
		return nil
	}
	t.pending++
	if t.pending >= t.every {
		// Best effort mid-phase. The count restarts even when the save
		// fails, so a failing checkpoint costs one Save per `every` units,
		// not one per unit; the journal keeps the unsaved records for the
		// next save, and the phase-boundary flush surfaces the error.
		t.pending = 0
		t.snapshotHealth()
		_ = t.ckpt.Save(t.prog)
	}
	return nil
}

// end applies r as its phase's End record, then flushes.
func (t *tracker) end(r Record) error {
	r.End = true
	if err := t.record(r); err != nil {
		return err
	}
	return t.flush()
}

// flush forces a save (phase boundaries, cancellation paths).
func (t *tracker) flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ckpt == nil {
		return nil
	}
	t.pending = 0
	t.snapshotHealth()
	if err := t.ckpt.Save(t.prog); err != nil {
		return fmt.Errorf("crawler: checkpoint save: %w", err)
	}
	return nil
}

// CrawlReport is the post-run account of what the crawl could not get:
// per-host health and error taxonomy from the circuit-breaker registry,
// plus every unit of work that failed terminally, instead of the gaps
// being silently dropped (the paper reports its own failure taxonomy in
// §3.2 the same way). The gap maps and SkippedQuarantined are read from
// the crawl's progress, so they cover the whole crawl across resumes.
type CrawlReport struct {
	// Resumed is true when the run continued from a checkpoint.
	Resumed bool
	// Hosts is the health registry snapshot, sorted by host: breaker
	// state, quarantine flag and error counts per host touched by the
	// crawl.
	Hosts []httpkit.HostHealth
	// FailedQueries lists phase-2 search queries that failed terminally.
	FailedQueries map[string]string
	// DroppedAuthors lists phase-3 authors skipped on lookup failure.
	DroppedAuthors map[string]string
	// TwitterTimelineFailures / MastodonTimelineFailures list §3.2
	// timeline crawls that failed on transport (not taxonomy) errors.
	TwitterTimelineFailures  map[string]string
	MastodonTimelineFailures map[string]string
	// FolloweeGaps lists sampled users whose followee crawl failed.
	FolloweeGaps map[string]string
	// ActivityGaps lists instance domains dropped from the activity
	// crawl.
	ActivityGaps map[string]string
	// SkippedQuarantined lists hosts the host gate refused to dial
	// because the (possibly resumed) health registry had them
	// quarantined, mapped to a short account of what was skipped. It
	// counts work units whose gap is the skip, so those units also
	// appear in the per-phase gap maps above; an exchange the gate
	// refused without failing its unit (a mapping lookup, which leaves
	// the pair unverified) is not counted.
	SkippedQuarantined map[string]string
	// HTTPStats is the shared client's counter snapshot: requests,
	// retries, hedges fired/won/denied, breaker short-circuits. It
	// counts this process's requests only, not those of a run it
	// resumed.
	HTTPStats httpkit.Stats
}

// GapCount totals the terminally failed work units.
func (r *CrawlReport) GapCount() int {
	return len(r.FailedQueries) + len(r.DroppedAuthors) +
		len(r.TwitterTimelineFailures) + len(r.MastodonTimelineFailures) +
		len(r.FolloweeGaps) + len(r.ActivityGaps)
}

// Summary renders a compact human-readable report.
func (r *CrawlReport) Summary() string {
	open, quarantined := 0, 0
	for _, h := range r.Hosts {
		if h.State != httpkit.BreakerClosed {
			open++
		}
		if h.Quarantined {
			quarantined++
		}
	}
	return fmt.Sprintf(
		"crawl report: resumed=%v hosts=%d open=%d quarantined=%d skipped=%d gaps=%d (queries=%d authors=%d twitterTL=%d mastoTL=%d followees=%d activity=%d)",
		r.Resumed, len(r.Hosts), open, quarantined, len(r.SkippedQuarantined), r.GapCount(),
		len(r.FailedQueries), len(r.DroppedAuthors),
		len(r.TwitterTimelineFailures), len(r.MastodonTimelineFailures),
		len(r.FolloweeGaps), len(r.ActivityGaps))
}

// Report snapshots the crawl's failure accounting and per-host health.
// It is valid before, during and after Run, a cancelled run included:
// the report covers the units the progress holds so far.
func (c *Crawler) Report() *CrawlReport {
	t := c.t
	t.mu.Lock()
	defer t.mu.Unlock()
	gaps := func(phase int) map[string]string {
		out := make(map[string]string, len(t.prog.Gaps[phase]))
		maps.Copy(out, t.prog.Gaps[phase])
		return out
	}
	rep := &CrawlReport{
		Resumed:                  t.resumed,
		Hosts:                    c.health.Snapshot(),
		FailedQueries:            gaps(phaseTweets),
		DroppedAuthors:           gaps(phaseMapping),
		TwitterTimelineFailures:  gaps(phaseTwitterTL),
		MastodonTimelineFailures: gaps(phaseMastoTL),
		FolloweeGaps:             gaps(phaseFollowees),
		ActivityGaps:             gaps(phaseActivity),
		SkippedQuarantined:       map[string]string{},
		HTTPStats:                c.client.Stats(),
	}
	for host, units := range t.prog.Skipped {
		opens := 0
		for _, h := range rep.Hosts {
			if h.Host == host {
				opens = h.Opens
				break
			}
		}
		rep.SkippedQuarantined[host] = fmt.Sprintf("quarantined after %d breaker opens; %d work units skipped", opens, units)
	}
	return rep
}

// begin loads (or starts) the run's progress and notes whether it
// resumed.
func (c *Crawler) begin() error {
	t := c.t
	prog, resumed := newProgress(), false
	if t.ckpt != nil {
		loaded, err := t.ckpt.Load()
		if err != nil {
			return fmt.Errorf("crawler: checkpoint load: %w", err)
		}
		if loaded != nil {
			if loaded.Version > ProgressVersion {
				return fmt.Errorf("crawler: checkpoint schema v%d is newer than supported v%d", loaded.Version, ProgressVersion)
			}
			loaded.normalize()
			// Seed the registry with the persisted health snapshot so the
			// host gate skips hosts quarantined before the kill. v1 files
			// carry no snapshot and resume with an empty registry.
			if !c.cfg.NoHealthResume && len(loaded.Health) > 0 {
				c.health.ImportHealth(loaded.Health)
			}
			loaded.Version = ProgressVersion
			prog, resumed = loaded, true
		}
		prog.StartJournal()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.prog, t.resumed, t.pending = prog, resumed, 0
	return nil
}

// parseTweetTime is the shared RFC3339 parse for crawl phases.
func parseTweetTime(s string) (time.Time, bool) {
	at, err := time.Parse(time.RFC3339, s)
	return at, err == nil
}
