package crawler

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"html"
	"math"
	"net/http"
	"strings"
	"testing"
	"unicode/utf8"

	"flock/internal/birdsite"
	"flock/internal/fediverse"
	"flock/internal/indexsvc"
	"flock/internal/memnet"
	"flock/internal/toxsvc"
	"flock/internal/vclock"
	"flock/internal/world"
)

// env is the fully assembled simulated internet for crawler tests.
type env struct {
	w    *world.World
	fab  *memnet.Fabric
	fedi *fediverse.Service
	http *http.Client
}

var shared *env
var sharedDS *Dataset

func newEnv(t testing.TB, nMigrants int, seed uint64) *env {
	cfg := world.DefaultConfig(nMigrants)
	cfg.Seed = seed
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fab := memnet.NewFabric()
	if _, err := fab.Serve(context.Background(), birdsite.Host, birdsite.New(w).Handler()); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Serve(context.Background(), indexsvc.Host, indexsvc.New(w).Handler()); err != nil {
		t.Fatal(err)
	}
	if _, err := fab.Serve(context.Background(), toxsvc.Host, toxsvc.New(0).Handler()); err != nil {
		t.Fatal(err)
	}
	fedi := fediverse.New(w)
	if _, err := fedi.RegisterAll(context.Background(), fab); err != nil {
		t.Fatal(err)
	}
	return &env{w: w, fab: fab, fedi: fedi, http: fab.Client()}
}

func (e *env) config() Config {
	return Config{
		TwitterBase:     "https://" + birdsite.Host,
		IndexBase:       "https://" + indexsvc.Host,
		PerspectiveBase: "https://" + toxsvc.Host,
		Transport:       Transport{HTTP: e.http, Concurrency: 8},
		ScoreToxicity:   false,
	}
}

func (e *env) crawler() *Crawler { return New(e.config()) }

// sharedRun crawls once (discovery/mapping up; outages before timelines
// is exercised in the core pipeline test; here everything stays up so
// coverage is about the mapping itself).
func sharedRun(t testing.TB) (*env, *Dataset) {
	if shared != nil {
		return shared, sharedDS
	}
	e := newEnv(t, 250, 21)
	ds, err := e.crawler().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	shared, sharedDS = e, ds
	return e, ds
}

func TestRunProducesPairs(t *testing.T) {
	e, ds := sharedRun(t)
	if len(ds.Pairs) == 0 {
		t.Fatal("no pairs mapped")
	}
	// Recall over the ground-truth *mappable* set: accounts alive in
	// search, with an announcement inside the collection window, whose
	// handle is findable by the §3.1 hierarchy (in bio, or in tweet text
	// with an identical username). Users outside this set are invisible
	// to the methodology — the paper's own 136k is the same kind of
	// lower bound.
	mapped := map[string]bool{}
	for i := range ds.Pairs {
		mapped[strings.ToLower(ds.Pairs[i].TwitterUsername)] = true
	}
	mappable, recovered := 0, 0
	for _, idx := range e.w.Migrants {
		u := e.w.Users[idx]
		if u.Deleted || u.Suspended {
			continue
		}
		inWindow := !u.MigratedAt.Before(vclock.CollectionStart) && u.MigratedAt.Before(vclock.CollectionEnd.Add(24*3600*1e9))
		findable := u.HandleInBio || (u.AnnounceStyle != 2 && strings.EqualFold(u.Username, u.MastodonUsername))
		if !inWindow || !findable {
			continue
		}
		mappable++
		if mapped[strings.ToLower(u.Username)] {
			recovered++
		}
	}
	recall := float64(recovered) / float64(mappable)
	if recall < 0.95 {
		t.Fatalf("recall = %v (%d of %d mappable)", recall, recovered, mappable)
	}
	// And the total should be in the right ballpark of all migrants.
	if len(ds.Pairs) < len(e.w.Migrants)*6/10 {
		t.Fatalf("only %d pairs of %d migrants", len(ds.Pairs), len(e.w.Migrants))
	}
}

func TestMappingPrecision(t *testing.T) {
	// Every mapped pair must point at the user's true Mastodon account:
	// no false positives from mention-only tweets.
	e, ds := sharedRun(t)
	byUsername := map[string]*world.User{}
	for _, u := range e.w.Users {
		byUsername[strings.ToLower(u.Username)] = u
	}
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		u := byUsername[strings.ToLower(p.TwitterUsername)]
		if u == nil {
			t.Fatalf("pair for unknown twitter user %q", p.TwitterUsername)
		}
		if !u.Migrated {
			t.Fatalf("pair maps non-migrant %q", p.TwitterUsername)
		}
		if !strings.EqualFold(p.Handle.Username, u.MastodonUsername) {
			t.Fatalf("pair username %q, world says %q", p.Handle.Username, u.MastodonUsername)
		}
		wantDomain := e.w.Instances[u.FirstInstance].Domain
		if p.Handle.Domain != wantDomain {
			t.Fatalf("pair domain %q, world first instance %q", p.Handle.Domain, wantDomain)
		}
	}
}

func TestSameUsernameShare(t *testing.T) {
	_, ds := sharedRun(t)
	same := 0
	for i := range ds.Pairs {
		if ds.Pairs[i].SameUsername {
			same++
		}
	}
	frac := float64(same) / float64(len(ds.Pairs))
	if math.Abs(frac-0.72) > 0.08 {
		t.Fatalf("same-username share = %v, want about 0.72", frac)
	}
}

func TestMatchSourceMix(t *testing.T) {
	_, ds := sharedRun(t)
	bySource := map[string]int{}
	for i := range ds.Pairs {
		bySource[ds.Pairs[i].MatchSource.String()]++
	}
	if bySource["metadata"] == 0 || bySource["tweet"] == 0 {
		t.Fatalf("match sources unbalanced: %v", bySource)
	}
}

func TestCollectedTweetClasses(t *testing.T) {
	_, ds := sharedRun(t)
	classes := map[QueryClass]int{}
	for _, ct := range ds.CollectedTweets {
		classes[ct.Class]++
	}
	if classes[ClassInstanceLink] == 0 || classes[ClassKeyword] == 0 {
		t.Fatalf("collection classes: %v", classes)
	}
	// All within the collection window.
	for _, ct := range ds.CollectedTweets {
		if ct.Time.Before(vclock.CollectionStart) || ct.Time.After(vclock.CollectionEnd.Add(24*3600*1e9)) {
			t.Fatalf("collected tweet outside window: %s", ct.Time)
		}
	}
}

func TestCollectedTweetsDeduped(t *testing.T) {
	_, ds := sharedRun(t)
	seen := map[string]bool{}
	for _, ct := range ds.CollectedTweets {
		if seen[ct.ID] {
			t.Fatalf("tweet %s duplicated", ct.ID)
		}
		seen[ct.ID] = true
	}
}

func TestTimelineCoverage(t *testing.T) {
	e, ds := sharedRun(t)
	cov := ds.Coverage()
	if cov.TwitterOK == 0 {
		t.Fatal("no twitter timelines")
	}
	okFrac := float64(cov.TwitterOK) / float64(cov.Pairs)
	// Paper: 94.88%. Our deleted/suspended users never even get mapped
	// (they vanish from search), so coverage among mapped pairs is
	// higher; protected ones are mapped but fail.
	if okFrac < 0.90 {
		t.Fatalf("twitter timeline coverage %v", okFrac)
	}
	if cov.TwitterProtected == 0 {
		t.Log("no protected accounts in sample (possible on small worlds)")
	}
	// Timeline posts must match world ground truth for an OK user.
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		tl := ds.TwitterTimelines[p.TwitterID]
		if tl == nil || tl.State != StateOK {
			continue
		}
		u := findUser(e.w, p.TwitterUsername)
		if len(tl.Posts) != len(e.w.TweetsByUser[u.ID]) {
			t.Fatalf("user %s: crawled %d tweets, world has %d", p.TwitterUsername, len(tl.Posts), len(e.w.TweetsByUser[u.ID]))
		}
		break
	}
}

func TestMastodonTimelineStates(t *testing.T) {
	e, ds := sharedRun(t)
	cov := ds.Coverage()
	if cov.MastodonOK == 0 {
		t.Fatal("no mastodon timelines")
	}
	// Everything is up in this test env, so down must be 0 and silent
	// close to the world's silent share.
	if cov.MastodonDown != 0 {
		t.Fatalf("instance down count %d with all instances up", cov.MastodonDown)
	}
	silentWorld := 0
	for _, u := range e.w.Migrants {
		if e.w.Users[u].Silent {
			silentWorld++
		}
	}
	if cov.MastodonSilent == 0 && silentWorld > 0 {
		t.Fatal("silent accounts not classified")
	}
}

func TestMovedPairsMatchWorldSwitchers(t *testing.T) {
	e, ds := sharedRun(t)
	worldSwitchers := map[string]bool{}
	for _, u := range e.w.Migrants {
		if e.w.Users[u].SecondInstance >= 0 {
			worldSwitchers[strings.ToLower(e.w.Users[u].Username)] = true
		}
	}
	crawled := 0
	for i := range ds.Pairs {
		p := &ds.Pairs[i]
		if p.Moved == nil {
			continue
		}
		crawled++
		if !worldSwitchers[strings.ToLower(p.TwitterUsername)] {
			t.Fatalf("pair %q marked moved but world says no switch", p.TwitterUsername)
		}
		u := findUser(e.w, p.TwitterUsername)
		wantDomain := e.w.Instances[u.SecondInstance].Domain
		if p.Moved.Handle.Domain != wantDomain {
			t.Fatalf("moved domain %q, want %q", p.Moved.Handle.Domain, wantDomain)
		}
	}
	if len(worldSwitchers) > 0 && crawled == 0 {
		t.Fatal("no moves detected despite world switchers")
	}
}

func TestFolloweeSampleStratification(t *testing.T) {
	_, ds := sharedRun(t)
	if len(ds.TwitterFollowees) == 0 {
		t.Fatal("no followee sample")
	}
	// Sample size about 10% of pairs.
	frac := float64(len(ds.TwitterFollowees)) / float64(len(ds.Pairs))
	if frac < 0.05 || frac > 0.2 {
		t.Fatalf("sample fraction = %v", frac)
	}
	// Straddles the median: some sampled users below, some above.
	counts := make([]int, 0, len(ds.Pairs))
	byID := ds.PairByTwitterID()
	for i := range ds.Pairs {
		counts = append(counts, ds.Pairs[i].TwitterFollowing)
	}
	med := medianInt(counts)
	below, above := 0, 0
	for id := range ds.TwitterFollowees {
		if byID[id].TwitterFollowing <= med {
			below++
		} else {
			above++
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("sample not stratified: below=%d above=%d", below, above)
	}
}

func TestFolloweeEdgesComplete(t *testing.T) {
	e, ds := sharedRun(t)
	for id, refs := range ds.TwitterFollowees {
		p := ds.PairByTwitterID()[id]
		u := findUser(e.w, p.TwitterUsername)
		if len(refs) != e.w.Graph.OutDegree(u.ID) {
			t.Fatalf("user %s: crawled %d followees, graph has %d", p.TwitterUsername, len(refs), e.w.Graph.OutDegree(u.ID))
		}
		break
	}
}

func TestActivityCrawl(t *testing.T) {
	_, ds := sharedRun(t)
	if len(ds.Activity) == 0 {
		t.Fatal("no activity crawled")
	}
	acts, ok := ds.Activity["mastodon.social"]
	if !ok {
		t.Fatal("mastodon.social activity missing")
	}
	for i := 1; i < len(acts); i++ {
		if !acts[i-1].Week.Before(acts[i].Week) {
			t.Fatal("activity weeks not ascending")
		}
	}
}

func TestToxicityScoring(t *testing.T) {
	e := newEnv(t, 80, 31)
	c := New(Config{
		TwitterBase:     "https://" + birdsite.Host,
		IndexBase:       "https://" + indexsvc.Host,
		PerspectiveBase: "https://" + toxsvc.Host,
		Transport:       Transport{HTTP: e.http, Concurrency: 8},
		ScoreToxicity:   true,
	})
	ds, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	scored, unscored := 0, 0
	for _, tl := range ds.TwitterTimelines {
		for _, p := range tl.Posts {
			if p.Toxicity >= 0 {
				scored++
			} else {
				unscored++
			}
		}
	}
	if scored == 0 {
		t.Fatal("no posts scored")
	}
	if unscored > scored/10 {
		t.Fatalf("too many unscored posts: %d vs %d", unscored, scored)
	}
}

func TestCoverageCountsAddUp(t *testing.T) {
	_, ds := sharedRun(t)
	cov := ds.Coverage()
	if cov.TwitterOK+cov.TwitterDeleted+cov.TwitterSuspended+cov.TwitterProtected != cov.Pairs {
		t.Fatalf("twitter states don't add up: %+v", cov)
	}
	if cov.MastodonOK+cov.MastodonSilent+cov.MastodonDown != cov.Pairs {
		t.Fatalf("mastodon states don't add up: %+v", cov)
	}
	if cov.InstancesReceived == 0 || cov.InstancesReceived > cov.InstancesIndexed {
		t.Fatalf("instance counts: %+v", cov)
	}
}

func findUser(w *world.World, username string) *world.User {
	for _, u := range w.Users {
		if strings.EqualFold(u.Username, username) {
			return u
		}
	}
	return nil
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]int(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j-1] > cp[j]; j-- {
			cp[j-1], cp[j] = cp[j], cp[j-1]
		}
	}
	return cp[len(cp)/2]
}

// TestDatasetSameAtAnyConcurrency: the crawl's dataset is a function of
// the world and the fault schedule, not of the worker count. Each count
// crawls a fresh copy of the same world with the §3.2 outages applied
// before the timelines, so retry backoffs against dead hosts overlap
// differently with the other units at each count.
func TestDatasetSameAtAnyConcurrency(t *testing.T) {
	var want []byte
	for _, n := range []int{1, 2, 8} {
		e := newEnv(t, 80, 5)
		cfg := e.config()
		cfg.Concurrency = n
		cfg.ScoreToxicity = true
		cfg.BeforeTimelines = func() { e.fedi.ApplyOutages(e.fab) }
		ds, err := New(cfg).Run(context.Background())
		e.fab.Close()
		if err != nil {
			t.Fatalf("concurrency %d: %v", n, err)
		}
		got, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("concurrency %d: %d bytes, sha256 %x", n, len(got), sha256.Sum256(got))
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("concurrency %d: dataset differs from concurrency 1 (%d vs %d bytes)", n, len(got), len(want))
		}
	}
}

// FuzzStripHTML checks that stripHTML inverts the fediverse's status
// rendering, "<p>" + html.EscapeString(text) + "</p>", up to surrounding
// whitespace: text that itself spells an entity must come back as
// written, not decoded a second time.
func FuzzStripHTML(f *testing.F) {
	for _, text := range []string{
		"plain status text",
		"a &lt; b",
		"x &gt; y",
		"it&#39;s",
		"say &#34;hi&#34;",
		"&quot;quoted&quot;",
		"&amp;amp;",
		"tom & jerry <3 'quotes' \"double\"",
		"  padded <p>tags</p> inside  ",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if !utf8.ValidString(text) {
			t.Skip()
		}
		if got, want := stripHTML("<p>"+html.EscapeString(text)+"</p>"), strings.TrimSpace(text); got != want {
			t.Fatalf("stripHTML of %q = %q, want %q", text, got, want)
		}
	})
}
