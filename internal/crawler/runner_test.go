package crawler_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"flock/internal/birdsite"
	"flock/internal/crawler"
	"flock/internal/httpkit"
	"flock/internal/store"
)

// journalCheckpoint keeps every record the crawl applies, in order: each
// Save appends the records journaled since the last one and trims them,
// and keeps the progress it was given.
type journalCheckpoint struct {
	seq  int
	recs []crawler.Record
	prog *crawler.Progress
}

func (j *journalCheckpoint) Load() (*crawler.Progress, error) { return nil, nil }

func (j *journalCheckpoint) Save(p *crawler.Progress) error {
	recs, ok := p.Journal(j.seq)
	if !ok {
		return errors.New("journal lost records")
	}
	j.recs = append(j.recs, recs...)
	j.seq = p.Seq()
	p.TrimJournal(j.seq)
	j.prog = p
	return nil
}

// FuzzApplyCommutes: within a phase, unit records commute. The journal
// of one crawl of a sparse world with one instance down and one
// quarantined (cripple), replayed with each phase's unit records in a
// fuzzed order and checkpointed at a fuzzed point (the prefix goes
// through Progress.Clone, the snapshot layout), yields the crawl's
// dataset byte for byte, and its gaps and quarantine skips. Units
// overlap only where two queries return the same tweet, and the
// instance-link class wins whatever the order; the End records' sorts
// join the rest.
func FuzzApplyCommutes(f *testing.F) {
	e := newSoakEnvFrom(f, sparseWorld())
	jc := &journalCheckpoint{}
	cfg := e.config()
	cfg.ScoreToxicity = true
	cfg.Checkpoint = jc
	ds, err := cripple(f, e)(cfg).Run(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	want, err := json.Marshal(ds)
	if err != nil {
		f.Fatal(err)
	}
	wantGaps, wantSkipped := jc.prog.Gaps, jc.prog.Skipped
	if len(wantGaps) == 0 || len(wantSkipped) == 0 {
		f.Fatalf("crawl recorded gaps %v and skips %v; want both", wantGaps, wantSkipped)
	}
	// Replay what a checkpoint would: the records as JSON decodes them.
	raw, err := json.Marshal(jc.recs)
	if err != nil {
		f.Fatal(err)
	}
	var journal []crawler.Record
	if err := json.Unmarshal(raw, &journal); err != nil {
		f.Fatal(err)
	}

	f.Add(uint16(0), []byte{})
	f.Add(uint16(len(journal)/2), []byte{7, 200, 13, 99, 1})
	f.Add(uint16(len(journal)), []byte{255, 3, 254, 0, 128, 77})
	f.Fuzz(func(t *testing.T, cut uint16, perm []byte) {
		recs := shuffleUnits(journal, perm)
		n := int(cut) % (len(recs) + 1)
		p := &crawler.Progress{Version: crawler.ProgressVersion}
		apply := func(recs []crawler.Record) {
			for _, r := range recs {
				if err := p.Apply(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		apply(recs[:n])
		p, err := p.Clone()
		if err != nil {
			t.Fatal(err)
		}
		apply(recs[n:])
		got, err := json.Marshal(p.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("replay cut at %d of %d records, order %x: dataset differs (%d bytes, want %d)", n, len(recs), perm, len(got), len(want))
		}
		if !maps.EqualFunc(p.Gaps, wantGaps, maps.Equal) || !maps.Equal(p.Skipped, wantSkipped) {
			t.Fatalf("replay cut at %d of %d records, order %x: gaps %v, skipped %v; want %v, %v", n, len(recs), perm, p.Gaps, p.Skipped, wantGaps, wantSkipped)
		}
	})
}

// shuffleUnits permutes each run of unit records between End records
// with swaps drawn from perm (no swaps when it is empty). Apply keeps a
// timeline record's timeline, and the toxicity End scores its posts in
// place, so the timelines are copied for each replay.
func shuffleUnits(journal []crawler.Record, perm []byte) []crawler.Record {
	recs := slices.Clone(journal)
	k := 0
	swap := func(n int) int {
		if len(perm) == 0 {
			return n - 1
		}
		b := perm[k%len(perm)]
		k++
		return int(b) % n
	}
	start := 0
	for i := range recs {
		if tl := recs[i].TwitterTL; tl != nil {
			cp := *tl
			cp.Posts = slices.Clone(tl.Posts)
			recs[i].TwitterTL = &cp
		}
		if tl := recs[i].MastodonTL; tl != nil {
			cp := *tl
			cp.Posts = slices.Clone(tl.Posts)
			recs[i].MastodonTL = &cp
		}
		if !recs[i].End {
			continue
		}
		for j := i - 1; j > start; j-- {
			s := start + swap(j-start+1)
			recs[j], recs[s] = recs[s], recs[j]
		}
		start = i + 1
	}
	return recs
}

// TestReportDuringRun reads the report before, during and after a crawl
// with gaps and skips (cripple), from a goroutine other than the crawl's.
// The report is a view of the crawl's progress, so it starts empty and
// its gap count only grows, up to the finished crawl's.
func TestReportDuringRun(t *testing.T) {
	e := newSoakEnvFrom(t, sparseWorld())
	c := cripple(t, e)(e.config())
	if rep := c.Report(); rep.Resumed || rep.GapCount() != 0 || len(rep.SkippedQuarantined) != 0 {
		t.Fatalf("report before Run: %s", rep.Summary())
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Run(context.Background())
		done <- err
	}()
	gaps, reads := 0, 0
	for running := true; running; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		rep := c.Report()
		if rep.GapCount() < gaps {
			t.Fatalf("report went back from %d gaps: %s", gaps, rep.Summary())
		}
		gaps = rep.GapCount()
	}
	if rep := c.Report(); gaps == 0 || len(rep.SkippedQuarantined) != 1 {
		t.Fatalf("finished crawl: %s; want gaps and one skipped host", rep.Summary())
	}
	t.Logf("%d reads, %d gaps", reads, gaps)
}

// cancelAt cancels the crawl when the n-th request that match accepts
// starts, then passes every request on.
type cancelAt struct {
	next   httpkit.Doer
	match  func(*http.Request) bool
	n      int
	cancel context.CancelFunc

	mu   sync.Mutex
	seen int
}

// endpointClass names the kind of request a URL path makes.
func endpointClass(path string) string {
	switch {
	case strings.Contains(path, "/search/"):
		return "search"
	case strings.HasSuffix(path, "/following"):
		return "following"
	case strings.HasSuffix(path, "/tweets"), strings.HasSuffix(path, "/statuses"):
		return "statuses"
	case strings.HasSuffix(path, "/activity"):
		return "activity"
	case strings.HasPrefix(path, "/2/users/"), strings.HasSuffix(path, "/lookup"):
		return "users"
	}
	return ""
}

// ofClass matches the requests of one endpoint class.
func ofClass(class string) func(*http.Request) bool {
	return func(req *http.Request) bool { return endpointClass(req.URL.Path) == class }
}

// mastodonStatuses matches the statuses requests to host, or to any
// fediverse instance when host is "".
func mastodonStatuses(host string) func(*http.Request) bool {
	return func(req *http.Request) bool {
		return strings.HasSuffix(req.URL.Path, "/statuses") && (host == "" || req.URL.Host == host)
	}
}

// twitterTimeline matches the Twitter timeline requests.
func twitterTimeline(req *http.Request) bool {
	return req.URL.Host == birdsite.Host && strings.HasSuffix(req.URL.Path, "/tweets")
}

func (d *cancelAt) Do(req *http.Request) (*http.Response, error) {
	if d.match(req) {
		d.mu.Lock()
		d.seen++
		if d.seen == d.n {
			d.cancel()
		}
		d.mu.Unlock()
	}
	return d.next.Do(req)
}

// recorder passes every request on and keeps them all, in the order
// they were sent.
type recorder struct {
	next httpkit.Doer

	mu   sync.Mutex
	sent []*http.Request
}

func (r *recorder) Do(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	r.sent = append(r.sent, req)
	r.mu.Unlock()
	return r.next.Do(req)
}

// paths returns the host and path of every request that match accepts,
// each once.
func (r *recorder) paths(match func(*http.Request) bool) map[string]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]bool{}
	for _, req := range r.sent {
		if match(req) {
			out[req.URL.Host+req.URL.Path] = true
		}
	}
	return out
}

// TestCancelledUnitsLeaveNoGap: a unit cut short by the crawl's
// cancellation is not a coverage gap. Whichever kind of request the
// cancel lands on, Run returns context.Canceled and the report lists no
// unit that failed on it; a resumed run fetches those units again.
func TestCancelledUnitsLeaveNoGap(t *testing.T) {
	for _, class := range []string{"search", "users", "statuses", "following", "activity"} {
		t.Run(class, func(t *testing.T) {
			e := newSoakEnv(t, 60, 13)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := e.config()
			cfg.HTTP = &cancelAt{next: e.http, match: ofClass(class), n: 5, cancel: cancel}
			c := crawler.New(cfg)
			if _, err := c.Run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			rep := c.Report()
			for name, gaps := range map[string]map[string]string{
				"FailedQueries":            rep.FailedQueries,
				"DroppedAuthors":           rep.DroppedAuthors,
				"TwitterTimelineFailures":  rep.TwitterTimelineFailures,
				"MastodonTimelineFailures": rep.MastodonTimelineFailures,
				"FolloweeGaps":             rep.FolloweeGaps,
				"ActivityGaps":             rep.ActivityGaps,
			} {
				for key, msg := range gaps {
					if strings.Contains(msg, "context canceled") {
						t.Errorf("%s[%s] = %q: a cancelled unit was noted as a gap", name, key, msg)
					}
				}
			}
		})
	}
}

// onePairHost returns a fediverse instance that exactly one of ds's
// pairs reaches, a verified pair that did not move, so the instance's
// only statuses requests are that pair's.
func onePairHost(t *testing.T, ds *crawler.Dataset) string {
	t.Helper()
	pairs := map[string]int{}
	for _, p := range ds.Pairs {
		pairs[p.Handle.Domain]++
		if p.Moved != nil {
			pairs[p.Moved.Handle.Domain]++
		}
	}
	for _, p := range ds.Pairs {
		if host := p.Handle.Domain; pairs[host] == 1 && p.Moved == nil && p.MastodonAccountID != "" {
			return host
		}
	}
	t.Fatal("no instance holds exactly one verified pair that did not move")
	return ""
}

// TestTimelineBatchOverlapsBackoffs: the two timeline phases share one
// worker group, Mastodon units first, so the Twitter timelines run while
// a dead instance's unit waits out its retry backoffs. At one worker,
// with one pair's instance taken down before the timelines and a breaker
// that the unit's three failed attempts do not open, a Twitter timeline
// request goes out between the unit's first and last attempt. Run one
// phase after the other, every Twitter timeline request would precede
// every statuses request.
func TestTimelineBatchOverlapsBackoffs(t *testing.T) {
	e := newSoakEnv(t, 60, 13)
	ref, err := crawler.New(e.config()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	host := onePairHost(t, ref)

	rec := &recorder{next: e.http}
	cfg := e.config()
	cfg.HTTP = rec
	cfg.Concurrency = 1
	cfg.Breaker = httpkit.BreakerPolicy{FailureThreshold: 10}
	cfg.BeforeTimelines = func() { e.fab.SetDown(host, true) }
	if _, err := crawler.New(cfg).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	dead := mastodonStatuses(host)
	var attempts []int
	for i, req := range rec.sent {
		if dead(req) {
			attempts = append(attempts, i)
		}
	}
	if len(attempts) != 3 {
		t.Fatalf("%s got %d statuses attempts, want the retry chain's 3", host, len(attempts))
	}
	overlap := 0
	for _, req := range rec.sent[attempts[0]:attempts[2]] {
		if twitterTimeline(req) {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatalf("no Twitter timeline request went out during %s's retry backoffs", host)
	}
	t.Logf("%d Twitter timeline requests went out during %s's retry backoffs", overlap, host)
}

// TestResumeInsideTimelineBatch kills a crawl inside the timeline batch,
// on a Twitter timeline request. The checkpoint then holds the Twitter
// timelines finished so far and no Mastodon timeline (the Mastodon
// records wait for the Twitter phase's End record), so the resumed run
// fetches every Mastodon timeline again but only the Twitter timelines
// the checkpoint lacks, and ends with the uninterrupted crawl's dataset.
func TestResumeInsideTimelineBatch(t *testing.T) {
	e := newSoakEnv(t, 60, 13)
	ref := &recorder{next: e.http}
	cfg := e.config()
	cfg.HTTP = ref
	refDS, err := crawler.New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refDS)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "crawl.ckpt.gz")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg = e.config()
	cfg.HTTP = &cancelAt{next: e.http, match: twitterTimeline, n: len(refDS.TwitterTimelines) / 2, cancel: cancel}
	cfg.Checkpoint = store.NewFileCheckpoint(path)
	cfg.CheckpointEvery = 4
	if _, err := crawler.New(cfg).Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("kill: err = %v, want context.Canceled", err)
	}
	prog := killedInTimelineBatch(t, path)
	if n := len(prog.Dataset.TwitterTimelines); n == 0 || n == len(refDS.TwitterTimelines) {
		t.Fatalf("kill left %d of %d Twitter timelines in the checkpoint, want some", n, len(refDS.TwitterTimelines))
	}

	rec := &recorder{next: e.http}
	cfg = e.config()
	cfg.HTTP = rec
	cfg.Checkpoint = store.NewFileCheckpoint(path)
	c := crawler.New(cfg)
	ds, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Report().Resumed {
		t.Fatal("did not resume")
	}
	got, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resume diverged from the uninterrupted crawl: %d bytes, want %d", len(got), len(want))
	}
	lacking := map[string]bool{}
	for id := range refDS.TwitterTimelines {
		if prog.Dataset.TwitterTimelines[id] == nil {
			lacking[birdsite.Host+"/2/users/"+id+"/tweets"] = true
		}
	}
	if tw := rec.paths(twitterTimeline); !maps.Equal(tw, lacking) {
		t.Errorf("resume fetched %d Twitter timelines, want the %d the checkpoint lacks", len(tw), len(lacking))
	}
	if st, all := rec.paths(mastodonStatuses("")), ref.paths(mastodonStatuses("")); !maps.Equal(st, all) {
		t.Errorf("resume fetched %d Mastodon timelines' statuses, want all %d", len(st), len(all))
	}
}

// TestResumeMidMastodonTimelines resumes a checkpoint of a crawl killed
// while the Mastodon timelines ran on their own, after the Twitter
// phase's End record, as crawls ran before the two timeline phases
// shared a worker group. It replays a reference crawl's records through
// Progress.Apply up to that End record and half the Mastodon units. The
// resumed run runs the Mastodon phase alone, fires BeforeTimelines once
// and ends with the reference dataset.
func TestResumeMidMastodonTimelines(t *testing.T) {
	e := newSoakEnvFrom(t, sparseWorld())
	jc := &journalCheckpoint{}
	ref := &recorder{next: e.http}
	cfg := e.config()
	cfg.HTTP = ref
	cfg.Checkpoint = jc
	refDS, err := crawler.New(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refDS)
	if err != nil {
		t.Fatal(err)
	}
	// Replay what a checkpoint would: the records as JSON decodes them.
	raw, err := json.Marshal(jc.recs)
	if err != nil {
		t.Fatal(err)
	}
	var journal []crawler.Record
	if err := json.Unmarshal(raw, &journal); err != nil {
		t.Fatal(err)
	}
	end := slices.IndexFunc(journal, func(r crawler.Record) bool { return r.End && r.Phase == phaseTwitterTL })
	var masto []crawler.Record
	for _, r := range journal[end+1:] {
		if r.Phase == phaseMastoTL && !r.End {
			masto = append(masto, r)
		}
	}
	p := &crawler.Progress{Version: crawler.ProgressVersion}
	for _, r := range append(journal[:end+1:end+1], masto[:len(masto)/2]...) {
		if err := p.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	mem := &crawler.MemCheckpoint{}
	if err := mem.Save(p); err != nil {
		t.Fatal(err)
	}

	rec := &recorder{next: e.http}
	fired := 0
	cfg = e.config()
	cfg.HTTP = rec
	cfg.Checkpoint = mem
	cfg.BeforeTimelines = func() { fired++ }
	c := crawler.New(cfg)
	ds, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Report().Resumed {
		t.Fatal("did not resume")
	}
	if fired != 1 {
		t.Errorf("BeforeTimelines fired %d times, want once", fired)
	}
	if tw := rec.paths(twitterTimeline); len(tw) != 0 {
		t.Errorf("resume fetched %d Twitter timelines, want none", len(tw))
	}
	st, all := rec.paths(mastodonStatuses("")), ref.paths(mastodonStatuses(""))
	for path := range st {
		if !all[path] {
			t.Errorf("resume fetched %s, which the reference crawl did not", path)
		}
	}
	if len(st) == 0 || len(st) >= len(all) {
		t.Errorf("resume fetched %d Mastodon timelines' statuses, want some of the reference's %d", len(st), len(all))
	}
	got, err := json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resume diverged from the uninterrupted crawl: %d bytes, want %d", len(got), len(want))
	}
}

// legacyDone reads a v3 or v4 checkpoint file as that schema's code
// wrote it and returns the done keys of phase, the phase in progress:
// the snapshot's set for it when the snapshot is in that phase (v3 kept
// one set per phase, or took the dataset's timelines as the timeline
// phases' set; v4 keeps the one done set), plus the keys of the frames'
// unit records of it.
func legacyDone(t *testing.T, raw []byte, version, phase int) map[string]bool {
	t.Helper()
	const trailer = 16
	if len(raw) < trailer || string(raw[len(raw)-trailer:][:8]) != "flockck3" {
		t.Fatal("not a framed checkpoint file")
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw[:len(raw)-trailer]))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(zr)
	var snap struct {
		Version       int             `json:"version"`
		Phase         int             `json:"phase"`
		Done          map[string]bool `json:"done"`
		DoneQueries   map[string]bool `json:"done_queries"`
		DoneAuthors   map[string]bool `json:"done_authors"`
		DoneFollowees map[string]bool `json:"done_followees"`
		DoneActivity  map[string]bool `json:"done_activity"`
		Dataset       struct {
			TwitterTimelines  map[string]json.RawMessage
			MastodonTimelines map[string]json.RawMessage
		} `json:"dataset"`
	}
	if err := dec.Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Version != version || (snap.Done != nil) != (version >= 4) {
		t.Fatalf("snapshot version %d, done %v: not a v%d snapshot", snap.Version, snap.Done, version)
	}
	done := map[string]bool{}
	switch {
	case snap.Phase+1 != phase:
	case version >= 4:
		maps.Copy(done, snap.Done)
	default:
		sets := map[int]map[string]bool{2: snap.DoneQueries, 3: snap.DoneAuthors, 6: snap.DoneFollowees, 7: snap.DoneActivity}
		maps.Copy(done, sets[phase])
		timelines := map[int]map[string]json.RawMessage{4: snap.Dataset.TwitterTimelines, 5: snap.Dataset.MastodonTimelines}
		for id := range timelines[phase] {
			done[id] = true
		}
	}
	for {
		var fr struct {
			Records []crawler.Record `json:"records"`
		}
		if err := dec.Decode(&fr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		for _, r := range fr.Records {
			if r.Phase == phase && !r.End {
				done[r.Key] = true
			}
		}
	}
	return done
}

// fixture is a committed checkpoint file and the phase in progress in
// it.
type fixture struct {
	file  string
	phase int
}

// TestCheckpointV3Fixtures resumes from real v3 checkpoint files, written
// by the v3 code and killed inside each phase that kept done units (see
// testdata/README.md). Each must load with the done set of the phase in
// progress, resume to the dataset of an uninterrupted crawl and re-save
// under the current schema. Comparing datasets alone would not catch a
// lost set in the timeline phases: fetching those timelines again
// rewrites identical entries.
func TestCheckpointV3Fixtures(t *testing.T) {
	testFixtures(t, 3, []fixture{
		{"v3_tweets.ckpt.gz", 2},
		{"v3_mapping.ckpt.gz", 3},
		{"v3_twitter_tl.ckpt.gz", 4},
		{"v3_mastodon_tl.ckpt.gz", 5},
	})
}

// TestCheckpointV4Fixtures does the same for real v4 files, which carry
// no gaps (see testdata/README.md): killed inside the Mastodon timelines
// and inside activity, each resumes to the uninterrupted dataset and
// re-saves as the current schema.
func TestCheckpointV4Fixtures(t *testing.T) {
	testFixtures(t, 4, []fixture{
		{"v4_mastodon_tl.ckpt.gz", 5},
		{"v4_activity.ckpt.gz", 7},
	})
}

func testFixtures(t *testing.T, version int, fixtures []fixture) {
	config := func(e *soakEnv) crawler.Config {
		cfg := e.config()
		cfg.Concurrency = 2
		cfg.CheckpointEvery = 4
		cfg.ScoreToxicity = true
		return cfg
	}
	refDS, err := crawler.New(config(newSoakEnvFrom(t, sparseWorld()))).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refDS)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			legacy := legacyDone(t, raw, version, fx.phase)
			if len(legacy) == 0 {
				t.Fatal("fixture holds no done units")
			}
			path := filepath.Join(t.TempDir(), fx.file)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			prog, err := store.NewFileCheckpoint(path).Load()
			if err != nil {
				t.Fatal(err)
			}
			if prog.Phase+1 != fx.phase {
				t.Fatalf("loaded at phase %d, want %d in progress", prog.Phase, fx.phase)
			}
			if !maps.Equal(prog.Done, legacy) {
				t.Fatalf("Done = %v, want the legacy set %v", slices.Sorted(maps.Keys(prog.Done)), slices.Sorted(maps.Keys(legacy)))
			}

			cfg := config(newSoakEnvFrom(t, sparseWorld()))
			cfg.Checkpoint = store.NewFileCheckpoint(path)
			c := crawler.New(cfg)
			ds, err := c.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !c.Report().Resumed {
				t.Fatal("did not resume")
			}
			got, err := json.Marshal(ds)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resume diverged from the uninterrupted crawl: %d bytes, want %d", len(got), len(want))
			}
			saved, err := store.NewFileCheckpoint(path).Load()
			if err != nil {
				t.Fatal(err)
			}
			if saved.Version != crawler.ProgressVersion {
				t.Fatalf("re-saved version %d, want %d", saved.Version, crawler.ProgressVersion)
			}
		})
	}
}
