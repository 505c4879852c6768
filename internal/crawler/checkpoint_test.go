package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"flock/internal/httpkit"
	"flock/internal/toxsvc"
)

// TestMemCheckpointSnapshotsProgress is the aliasing regression test:
// Save must freeze the progress at save time (FileCheckpoint serialize
// semantics), not retain the caller's live pointer.
func TestMemCheckpointSnapshotsProgress(t *testing.T) {
	ck := &MemCheckpoint{}
	prog := newProgress()
	prog.Phase = phaseTweets
	prog.Done["mastodon"] = true
	if err := ck.Save(prog); err != nil {
		t.Fatal(err)
	}

	// Mutate the original after the save, as the tracker does between
	// periodic saves.
	prog.Phase = phaseActivity
	prog.Done["#RIPTwitter"] = true
	prog.Dataset.Pairs = append(prog.Dataset.Pairs, AccountPair{TwitterID: "late"})

	got, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != phaseTweets {
		t.Fatalf("saved snapshot phase = %d, want %d (live alias of caller's progress?)", got.Phase, phaseTweets)
	}
	if len(got.Done) != 1 || !got.Done["mastodon"] {
		t.Fatalf("saved snapshot queries = %v, want only the pre-save entry", got.Done)
	}
	if len(got.Dataset.Pairs) != 0 {
		t.Fatalf("post-save pair leaked into snapshot: %+v", got.Dataset.Pairs)
	}

	// Loads hand out isolated copies too: mutating one must not bleed
	// into the stored snapshot or other loads.
	got.Done["tampered"] = true
	again, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if again.Done["tampered"] {
		t.Fatal("Load returned a shared copy; mutation bled across loads")
	}
}

// TestMemCheckpointConcurrentSaveLoad exercises the aliasing bug's race
// form under -race: a writer mutating its progress between saves while a
// reader walks loaded snapshots. With live-alias semantics this is a
// data race on the maps; with snapshot semantics it is clean.
func TestMemCheckpointConcurrentSaveLoad(t *testing.T) {
	ck := &MemCheckpoint{}
	prog := newProgress()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			prog.Done[string(rune('a'+i%26))] = true
			prog.Phase = i % phaseToxicity
			if err := ck.Save(prog); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			got, err := ck.Load()
			if err != nil {
				t.Error(err)
				return
			}
			if got == nil {
				continue
			}
			n := 0
			for q := range got.Done {
				_ = q
				n++
			}
			if n > 26 {
				t.Errorf("impossible query count %d", n)
				return
			}
		}
	}()
	wg.Wait()
}

// failingCheckpoint refuses every Save and counts the attempts.
type failingCheckpoint struct{ saves int }

func (f *failingCheckpoint) Load() (*Progress, error) { return nil, nil }

func (f *failingCheckpoint) Save(*Progress) error {
	f.saves++
	return errors.New("disk full")
}

// TestTrackerFailedSaveResetsCount is the retry-storm regression test: a
// failed periodic save must not leave the unit count at the threshold,
// or every later unit would save again under the tracker lock.
func TestTrackerFailedSaveResetsCount(t *testing.T) {
	ck := &failingCheckpoint{}
	tr := &tracker{ckpt: ck, every: 10, prog: newProgress()}
	tr.prog.StartJournal()
	if err := tr.record(Record{Phase: phaseIndex, End: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := tr.record(Record{Phase: phaseTweets, Key: fmt.Sprintf("q%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if ck.saves != 10 {
		t.Fatalf("100 units at every=10 made %d saves, want 10", ck.saves)
	}
	if err := tr.flush(); err == nil {
		t.Fatal("boundary flush swallowed the save error")
	}
	// Nothing was written, so the journal still holds every record.
	if recs, ok := tr.prog.Journal(0); !ok || len(recs) != 101 {
		t.Fatalf("journal = %d records (ok=%v), want 101", len(recs), ok)
	}
}

// TestApplyRejectsBadRecords: a record from the wrong phase, a unit that
// already completed, or a score list that does not fit the posts is an
// error and leaves the progress as it was.
func TestApplyRejectsBadRecords(t *testing.T) {
	p := newProgress()
	p.StartJournal()
	instances := []IndexedInstance{{Name: "mastodon.social", Up: true}}
	for _, r := range []Record{
		{Phase: phaseIndex, End: true, Instances: &instances},
		{Phase: phaseTweets, Key: "mastodon", Class: ClassKeyword, Tweets: []TweetJSON{{ID: "1", CreatedAt: "2022-11-01T00:00:00Z"}}},
	} {
		if err := p.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	before, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]Record{
		"out of phase": {Phase: phaseMapping, Key: "a1"},
		"duplicate":    {Phase: phaseTweets, Key: "mastodon"},
		"no unit":      {Phase: phaseToxicity + 1, End: true},
	} {
		if err := p.Apply(r); err == nil {
			t.Errorf("%s record applied", name)
		}
	}
	after, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatal("rejected records changed the progress")
	}
	if p.Seq() != 2 {
		t.Fatalf("Seq = %d, want 2", p.Seq())
	}
	p.TrimJournal(1)
	if _, ok := p.Journal(0); ok {
		t.Fatal("Journal returned trimmed records")
	}
	if recs, ok := p.Journal(1); !ok || len(recs) != 1 || recs[0].Key != "mastodon" {
		t.Fatalf("Journal(1) = %+v, %v", recs, ok)
	}

	// The toxicity end needs exactly one score per timeline post.
	q := newProgress()
	q.Phase = phaseActivity
	q.Dataset.TwitterTimelines["u1"] = &TwitterTimeline{State: StateOK, Posts: []Post{{ID: "p1", Toxicity: -1}}}
	if err := q.Apply(Record{Phase: phaseToxicity, End: true, Scores: []float64{0.1, 0.2}}); err == nil {
		t.Fatal("two scores for one post applied")
	}
	if err := q.Apply(Record{Phase: phaseToxicity, End: true, Scores: []float64{0.25}}); err != nil {
		t.Fatal(err)
	}
	if got := q.Dataset.TwitterTimelines["u1"].Posts[0].Toxicity; got != 0.25 {
		t.Fatalf("score = %v, want 0.25", got)
	}
}

// TestDuplicateKeywordRunsOnce: a keyword listed twice is scheduled
// once, so the crawl neither fails on the repeated unit nor changes its
// dataset.
func TestDuplicateKeywordRunsOnce(t *testing.T) {
	e := newEnv(t, 30, 5)
	run := func(keywords ...string) []byte {
		cfg := e.config()
		cfg.Keywords = keywords
		cfg.Checkpoint = &MemCheckpoint{}
		cfg.CheckpointEvery = 4
		ds, err := New(cfg).Run(context.Background())
		if err != nil {
			t.Fatalf("keywords %q: %v", keywords, err)
		}
		raw, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	once := run("mastodon", "#Mastodon")
	twice := run("mastodon", "#Mastodon", "mastodon")
	if string(once) != string(twice) {
		t.Fatalf("a repeated keyword changed the dataset: %d bytes, want %d", len(twice), len(once))
	}
}

// toxCounter counts the requests that reach the toxicity service and
// cancels the crawl at the after-th (never when after is 0).
type toxCounter struct {
	next   httpkit.Doer
	after  int
	cancel context.CancelFunc

	mu sync.Mutex
	n  int
}

func (d *toxCounter) Do(req *http.Request) (*http.Response, error) {
	if req.URL.Hostname() == toxsvc.Host {
		d.mu.Lock()
		d.n++
		if d.n == d.after {
			d.cancel()
		}
		d.mu.Unlock()
	}
	return d.next.Do(req)
}

// TestToxicityResumeSkipsScoredPosts: a toxicity phase cancelled part
// way saves the scores it has, and the resumed run asks only for the
// posts still unscored.
func TestToxicityResumeSkipsScoredPosts(t *testing.T) {
	e := newEnv(t, 40, 11)
	ck := &MemCheckpoint{}
	run := func(ctx context.Context, doer httpkit.Doer) (*Dataset, error) {
		cfg := e.config()
		cfg.HTTP = doer
		cfg.ScoreToxicity = true
		cfg.Checkpoint = ck
		return New(cfg).Run(ctx)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := run(ctx, &toxCounter{next: e.http, after: 40, cancel: cancel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("first leg: %v, want cancellation", err)
	}
	saved, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	if saved.Phase != phaseActivity {
		t.Fatalf("saved phase %d, want %d", saved.Phase, phaseActivity)
	}
	posts := saved.Dataset.timelinePosts()
	unscored := 0
	for _, post := range posts {
		if post.Toxicity < 0 {
			unscored++
		}
	}
	if unscored == 0 || unscored == len(posts) {
		t.Fatalf("%d of %d posts unscored after the cancel, want some of them", unscored, len(posts))
	}

	counter := &toxCounter{next: e.http}
	ds, err := run(context.Background(), counter)
	if err != nil {
		t.Fatal(err)
	}
	if counter.n != unscored {
		t.Fatalf("resumed run made %d toxicity requests, want %d (the unscored posts)", counter.n, unscored)
	}
	for _, post := range ds.timelinePosts() {
		if post.Toxicity < 0 {
			t.Fatalf("post %s left unscored", post.ID)
		}
	}
}
