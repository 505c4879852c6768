package world

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"flock/internal/stats"
	"flock/internal/vclock"
)

// testWorld caches one mid-size world across tests; generation is the
// expensive part.
var testW *World

func getWorld(t testing.TB) *World {
	if testW != nil {
		return testW
	}
	cfg := DefaultConfig(800)
	cfg.Seed = 42
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	testW = w
	return w
}

// InstanceByDomain finds an instance by domain (nil if unknown).
func (w *World) InstanceByDomain(domain string) *Instance {
	for _, inst := range w.Instances {
		if inst.Domain == domain {
			return inst
		}
	}
	return nil
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

// postsDigest hashes every field of every user's tweets and statuses, in
// user order and then list order.
func postsDigest(w *World) string {
	h := sha256.New()
	for u := range w.Users {
		fmt.Fprintf(h, "user %d: %d tweets, %d statuses\n", u, len(w.TweetsByUser[u]), len(w.StatusesByUser[u]))
		for _, tw := range w.TweetsByUser[u] {
			fmt.Fprintf(h, "t %d %d %d %q %q %d %t\n",
				tw.ID, tw.UserID, tw.Time.UnixNano(), tw.Text, tw.Source, tw.Kind, tw.Toxic)
		}
		for _, s := range w.StatusesByUser[u] {
			fmt.Fprintf(h, "s %d %d %d %d %q %d %t\n",
				s.ID, s.UserID, s.InstanceID, s.Time.UnixNano(), s.Text, s.MirroredFrom, s.Toxic)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeterminism generates one world at GOMAXPROCS 1, 2 and 8. Every
// tweet and status must come out byte for byte the same, and the same as
// the serial post generator made them: wantPosts is its digest of this
// world.
func TestDeterminism(t *testing.T) {
	const wantPosts = "e4f218c50ed06e5d61bad142dc0a5444f7815edc10563cde3dcf60b2c2edc37b"
	cfg := DefaultConfig(120)
	cfg.Seed = 7
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var w1 *World
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := postsDigest(w); got != wantPosts {
			t.Errorf("GOMAXPROCS %d: posts digest %s, want %s", procs, got, wantPosts)
		}
		if w1 == nil {
			w1 = w
			continue
		}
		if len(w.Migrants) != len(w1.Migrants) {
			t.Fatalf("GOMAXPROCS %d: %d migrants, want %d", procs, len(w.Migrants), len(w1.Migrants))
		}
		for i := range w1.Migrants {
			a, b := w1.Users[w1.Migrants[i]], w.Users[w.Migrants[i]]
			if a.ID != b.ID || a.FirstInstance != b.FirstInstance || !a.MigratedAt.Equal(b.MigratedAt) {
				t.Fatalf("GOMAXPROCS %d: migrant %d differs", procs, i)
			}
		}
	}
}

func TestMigrantCountNearTarget(t *testing.T) {
	w := getWorld(t)
	got := len(w.Migrants)
	want := w.Cfg.NMigrants
	if got < want*95/100 || got > want*105/100 {
		t.Fatalf("migrants = %d, want about %d", got, want)
	}
}

func TestMigrationTimingShape(t *testing.T) {
	w := getWorld(t)
	pre, post := 0, 0
	for _, u := range w.Migrants {
		if vclock.PostTakeover(w.Users[u].MigratedAt) {
			post++
		} else {
			pre++
		}
	}
	frac := float64(post) / float64(pre+post)
	if frac < 0.80 {
		t.Fatalf("post-takeover migration fraction = %v, want dominant", frac)
	}
}

func TestPreTakeoverAccountsShare(t *testing.T) {
	w := getWorld(t)
	pre := 0
	for _, u := range w.Migrants {
		if w.Users[u].MastodonCreatedAt.Before(vclock.Takeover) {
			pre++
		}
	}
	frac := float64(pre) / float64(len(w.Migrants))
	// Paper: 21% of accounts predate the takeover. The pre-takeover
	// migration trickle adds a little on top of the 21% coin flips.
	if frac < 0.15 || frac > 0.40 {
		t.Fatalf("pre-takeover account share = %v, want around 0.21-0.35", frac)
	}
}

func TestSameUsernameShare(t *testing.T) {
	w := getWorld(t)
	same := 0
	for _, u := range w.Migrants {
		user := w.Users[u]
		if user.MastodonUsername == user.Username {
			same++
		}
	}
	frac := float64(same) / float64(len(w.Migrants))
	// The world prior is 0.615; the §3.1 mapping funnel inflates the
	// measured share to the paper's 72% (see DefaultConfig).
	if math.Abs(frac-w.Cfg.SameUsernameProb) > 0.06 {
		t.Fatalf("same-username share = %v, want about %v", frac, w.Cfg.SameUsernameProb)
	}
}

func TestCentralizationTop25(t *testing.T) {
	// Paper Fig. 5: rank receiving instances by size (user count), plot
	// the share of migrated users on the top 25%.
	w := getWorld(t)
	var rank, mass []int
	for i, c := range w.MigrantsPerInstance {
		if w.Instances[i].Domain == "" {
			continue // unclaimed personal slot: not a real server
		}
		rank = append(rank, w.Instances[i].TotalUsers(c))
		mass = append(mass, c)
	}
	pts := stats.TopShareBy(rank, mass, 100)
	share := pts[24].Y
	if share < 0.85 {
		t.Fatalf("top-25%% instance share = %v, want >= 0.85 (paper: 0.96)", share)
	}
}

func TestMastodonSocialIsLargest(t *testing.T) {
	w := getWorld(t)
	ms := w.InstanceByDomain("mastodon.social")
	if ms == nil {
		t.Fatal("mastodon.social missing")
	}
	for i, c := range w.MigrantsPerInstance {
		if c > w.MigrantsPerInstance[ms.ID] {
			t.Fatalf("instance %s (%d migrants) beats mastodon.social (%d)",
				w.Instances[i].Domain, c, w.MigrantsPerInstance[ms.ID])
		}
	}
}

func TestPersonalInstancesSingleUser(t *testing.T) {
	w := getWorld(t)
	personal := 0
	for _, inst := range w.Instances {
		if inst.Category != CatPersonal {
			continue
		}
		if inst.OwnerUser >= 0 {
			personal++
			if got := w.MigrantsPerInstance[inst.ID]; got != 1 {
				t.Fatalf("personal instance %q has %d migrants", inst.Domain, got)
			}
			if inst.NativeUsers != 0 {
				t.Fatal("personal instance has natives")
			}
			if !strings.HasSuffix(inst.Domain, ".page") {
				t.Fatalf("personal domain %q", inst.Domain)
			}
		}
	}
	if personal == 0 {
		t.Fatal("no personal instances claimed")
	}
}

func TestActivityParadox(t *testing.T) {
	// Users on single-user instances must post more than users on the
	// biggest instances (paper: +121%).
	w := getWorld(t)
	var small, big []float64
	for _, u := range w.Migrants {
		user := w.Users[u]
		inst := w.Instances[user.FinalInstance()]
		n := len(w.StatusesByUser[u])
		if inst.Category == CatPersonal {
			small = append(small, float64(n))
		} else if inst.Category == CatFlagship {
			big = append(big, float64(n))
		}
	}
	if len(small) < 3 || len(big) < 10 {
		t.Skipf("not enough samples: %d personal, %d flagship", len(small), len(big))
	}
	ms, mb := stats.Mean(small), stats.Mean(big)
	if ms <= mb {
		t.Fatalf("personal-instance mean statuses %v <= flagship mean %v", ms, mb)
	}
}

func TestSwitchingShare(t *testing.T) {
	w := getWorld(t)
	sw := 0
	postTakeover := 0
	for _, u := range w.Migrants {
		user := w.Users[u]
		if user.SecondInstance >= 0 {
			sw++
			if vclock.PostTakeover(user.SwitchedAt) {
				postTakeover++
			}
			if user.SecondInstance == user.FirstInstance {
				t.Fatal("switched to the same instance")
			}
			if user.SwitchedAt.Before(user.MigratedAt) {
				t.Fatal("switched before migrating")
			}
		}
	}
	frac := float64(sw) / float64(len(w.Migrants))
	if math.Abs(frac-0.0409) > 0.02 {
		t.Fatalf("switcher share = %v, want about 0.0409", frac)
	}
	if sw > 0 && float64(postTakeover)/float64(sw) < 0.85 {
		t.Fatalf("only %d/%d switches post-takeover", postTakeover, sw)
	}
}

func TestAccountStates(t *testing.T) {
	w := getWorld(t)
	var susp, del, prot, silent int
	for _, u := range w.Migrants {
		user := w.Users[u]
		if user.Suspended {
			susp++
		}
		if user.Deleted {
			del++
		}
		if user.Protected {
			prot++
		}
		if user.Silent {
			silent++
		}
	}
	n := float64(len(w.Migrants))
	if d := float64(del) / n; math.Abs(d-0.0226) > 0.015 {
		t.Fatalf("deleted share = %v", d)
	}
	if s := float64(silent) / n; math.Abs(s-0.092) > 0.03 {
		t.Fatalf("silent share = %v", s)
	}
	_ = susp
	if p := float64(prot) / n; p > 0.06 {
		t.Fatalf("protected share = %v", p)
	}
}

func TestSilentUsersHaveNoStatuses(t *testing.T) {
	w := getWorld(t)
	for _, u := range w.Migrants {
		if w.Users[u].Silent && len(w.StatusesByUser[u]) != 0 {
			t.Fatalf("silent user %d has %d statuses", u, len(w.StatusesByUser[u]))
		}
	}
}

func TestTimelinesSortedAndOwned(t *testing.T) {
	w := getWorld(t)
	for u, tweets := range w.TweetsByUser {
		for i := range tweets {
			if tweets[i].UserID != u {
				t.Fatal("tweet owner mismatch")
			}
			if i > 0 && tweets[i].Time.Before(tweets[i-1].Time) {
				t.Fatal("tweets not time-sorted")
			}
			if i > 0 && tweets[i].ID <= tweets[i-1].ID {
				t.Fatal("tweet IDs not increasing")
			}
		}
	}
	for u, ss := range w.StatusesByUser {
		for i := range ss {
			if ss[i].UserID != u {
				t.Fatal("status owner mismatch")
			}
			if i > 0 && ss[i].Time.Before(ss[i-1].Time) {
				t.Fatal("statuses not time-sorted")
			}
		}
	}
}

func TestCrossposterToolsPresent(t *testing.T) {
	w := getWorld(t)
	tools := 0
	bridged := 0
	for _, u := range w.Migrants {
		user := w.Users[u]
		if user.Tool == NoTool {
			continue
		}
		tools++
		for _, tw := range w.TweetsByUser[u] {
			if tw.Source == user.Tool.SourceName() {
				bridged++
			}
		}
	}
	frac := float64(tools) / float64(len(w.Migrants))
	if math.Abs(frac-0.0573) > 0.025 {
		t.Fatalf("crossposter share = %v, want about 0.0573", frac)
	}
	if tools > 0 && bridged == 0 {
		t.Fatal("tool users produced no bridged tweets")
	}
}

func TestAnnouncementsDiscoverable(t *testing.T) {
	w := getWorld(t)
	for _, u := range w.Migrants {
		user := w.Users[u]
		hasAnn := false
		for _, tw := range w.TweetsByUser[u] {
			if tw.Kind == KindAnnouncement {
				hasAnn = true
				break
			}
		}
		if !hasAnn {
			t.Fatalf("migrant %d has no announcement tweet", u)
		}
		if !user.HandleInBio && user.AnnounceStyle == 2 {
			t.Fatalf("migrant %d is undiscoverable (no bio handle, bio-only style)", u)
		}
	}
}

func TestToxicityRates(t *testing.T) {
	w := getWorld(t)
	var tox, all int
	for _, u := range w.Migrants {
		for _, tw := range w.TweetsByUser[u] {
			all++
			if tw.Toxic {
				tox++
			}
		}
	}
	rate := float64(tox) / float64(all)
	if rate < 0.015 || rate > 0.09 {
		t.Fatalf("tweet toxicity rate = %v, want a few percent", rate)
	}
	var stox, sall int
	for _, u := range w.Migrants {
		for _, s := range w.StatusesByUser[u] {
			sall++
			if s.Toxic {
				stox++
			}
		}
	}
	srate := float64(stox) / float64(sall)
	if srate >= rate {
		t.Fatalf("status toxicity %v not lower than tweet toxicity %v", srate, rate)
	}
}

func TestMastodonNetworkSmallerThanTwitter(t *testing.T) {
	w := getWorld(t)
	var twF, mF []float64
	for _, u := range w.Migrants {
		user := w.Users[u]
		twF = append(twF, float64(w.Graph.OutDegree(u)))
		mF = append(mF, float64(len(user.MastodonFollowees)+user.NativeFollowees))
	}
	twMed, mMed := stats.Median(twF), stats.Median(mF)
	if mMed >= twMed {
		t.Fatalf("mastodon median followees %v >= twitter %v", mMed, twMed)
	}
}

func TestActivitySeries(t *testing.T) {
	w := getWorld(t)
	ms := w.InstanceByDomain("mastodon.social")
	series := w.Activity[ms.ID]
	if len(series) < 8 {
		t.Fatalf("only %d weeks of activity", len(series))
	}
	// Registrations after takeover must dwarf the pre-takeover baseline.
	// The takeover lands mid-week, so bucket by week index: the takeover
	// week itself counts as "post".
	takeoverWeekStart := vclock.WeekStart(vclock.Week(vclock.Takeover))
	var pre, post int
	for _, wk := range series {
		if wk.WeekStart.Before(takeoverWeekStart) {
			pre += wk.Registrations
		} else {
			post += wk.Registrations
		}
	}
	if post <= pre*2 {
		t.Fatalf("registration wave missing: pre=%d post=%d", pre, post)
	}
	for _, wk := range series {
		if wk.Registrations < 0 || wk.Logins < 0 || wk.Statuses < 0 {
			t.Fatal("negative activity")
		}
	}
}

func TestDownCoverage(t *testing.T) {
	w := getWorld(t)
	down := 0
	for _, u := range w.Migrants {
		if w.Instances[w.Users[u].FinalInstance()].Down {
			down++
		}
	}
	frac := float64(down) / float64(len(w.Migrants))
	if math.Abs(frac-w.Cfg.DownCoverage) > 0.05 {
		t.Fatalf("down coverage = %v, want about %v", frac, w.Cfg.DownCoverage)
	}
	if w.InstanceByDomain("mastodon.social").Down {
		t.Fatal("flagship marked down")
	}
}

func TestContagionSignal(t *testing.T) {
	// Migrants' followees should migrate at a higher rate than the
	// population baseline: that is the social-contagion ground truth.
	w := getWorld(t)
	var fracs []float64
	for _, u := range w.Migrants {
		followees := w.Graph.Followees(u)
		if len(followees) == 0 {
			continue
		}
		migrated := 0
		for _, v := range followees {
			if w.Users[v].Migrated {
				migrated++
			}
		}
		fracs = append(fracs, float64(migrated)/float64(len(followees)))
	}
	mean := stats.Mean(fracs)
	base := float64(len(w.Migrants)) / float64(len(w.Users))
	if mean <= base {
		t.Fatalf("mean migrated-followee fraction %v <= base rate %v: no contagion", mean, base)
	}
}

func TestMirroredContentExists(t *testing.T) {
	w := getWorld(t)
	mirrored := 0
	for _, u := range w.Migrants {
		for _, s := range w.StatusesByUser[u] {
			if s.MirroredFrom >= 0 {
				mirrored++
			}
		}
	}
	if mirrored == 0 {
		t.Fatal("no mirrored statuses in the world")
	}
}

func TestInstanceDomainsUnique(t *testing.T) {
	w := getWorld(t)
	seen := map[string]bool{}
	for _, inst := range w.Instances {
		if inst.Domain == "" {
			continue // unclaimed personal slot
		}
		if seen[inst.Domain] {
			t.Fatalf("duplicate domain %q", inst.Domain)
		}
		seen[inst.Domain] = true
	}
}

// generateSink keeps BenchmarkGenerate's result live.
var generateSink *World

// BenchmarkGenerate times Generate on the seed-99 300-migrant world, the
// paper_300 benchmark workload's world, so every iteration does the same
// work. It loops to b.N rather than on b.Loop, which in Go 1.24 times the
// first -cpu value at the previous GOMAXPROCS.
func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultConfig(300)
	cfg.Seed = 99
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		generateSink = w
	}
}
