package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"flock/internal/crawler"
	"flock/internal/match"
)

// sampleDataset builds a small dataset by hand.
func sampleDataset() *crawler.Dataset {
	ds := crawler.NewDataset()
	ds.Instances = []crawler.IndexedInstance{
		{Name: "mastodon.social", Users: 1000, Up: true},
		{Name: "tiny.town", Users: 3, Up: false},
	}
	at := time.Date(2022, 11, 1, 10, 0, 0, 0, time.UTC)
	ds.CollectedTweets = []crawler.CollectedTweet{
		{ID: "100", AuthorID: "7", Time: at, Text: "bye! @alice@mastodon.social", Source: "Twitter Web App", Class: crawler.ClassKeyword},
	}
	ds.Pairs = []crawler.AccountPair{
		{
			TwitterID:         "7",
			TwitterUsername:   "alice",
			Handle:            match.Handle{Username: "alice", Domain: "mastodon.social"},
			MatchSource:       match.SourceTweet,
			SameUsername:      true,
			MastodonVerified:  true,
			MastodonAccountID: "9001",
			MastodonCreatedAt: at,
			Moved: &crawler.MovedRecord{
				Handle:    match.Handle{Username: "alice", Domain: "tiny.town"},
				AccountID: "42",
				MovedAt:   at.Add(time.Hour),
			},
		},
	}
	ds.TwitterTimelines["7"] = &crawler.TwitterTimeline{
		State: crawler.StateOK,
		Posts: []crawler.Post{{ID: "100", Time: at, Text: "hi", Source: "Twitter Web App", Toxicity: 0.1}},
	}
	ds.MastodonTimelines["7"] = &crawler.MastodonTimeline{
		State: crawler.StateOK,
		Posts: []crawler.Post{{ID: "200", Time: at, Text: "hello fedi", Domain: "mastodon.social", Toxicity: -1}},
	}
	ds.TwitterFollowees["7"] = []crawler.FolloweeRef{{TwitterID: "8", Username: "bob"}}
	ds.MastodonFollowing["7"] = []string{"@bob@tiny.town"}
	ds.Activity["mastodon.social"] = []crawler.WeekActivity{
		{Week: at.Truncate(24 * time.Hour), Statuses: 10, Logins: 5, Registrations: 2},
	}
	return ds
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := sampleDataset()
	if err := Save(dir, ds, false); err != nil {
		t.Fatal(err)
	}
	got, m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counts.Pairs != 1 || m.Anonymized {
		t.Fatalf("manifest %+v", m)
	}
	if len(got.Instances) != 2 || got.Instances[1].Name != "tiny.town" {
		t.Fatalf("instances %v", got.Instances)
	}
	if len(got.CollectedTweets) != 1 || got.CollectedTweets[0].Text != ds.CollectedTweets[0].Text {
		t.Fatal("collected tweets lost")
	}
	p := got.Pairs[0]
	if p.TwitterUsername != "alice" || p.Moved == nil || p.Moved.Handle.Domain != "tiny.town" {
		t.Fatalf("pair %+v", p)
	}
	if !p.Moved.MovedAt.Equal(ds.Pairs[0].Moved.MovedAt) {
		t.Fatal("moved time lost")
	}
	tl := got.TwitterTimelines["7"]
	if tl == nil || tl.State != crawler.StateOK || len(tl.Posts) != 1 || tl.Posts[0].Toxicity != 0.1 {
		t.Fatalf("twitter timeline %+v", tl)
	}
	if got.MastodonTimelines["7"].Posts[0].Domain != "mastodon.social" {
		t.Fatal("status domain lost")
	}
	if got.TwitterFollowees["7"][0].Username != "bob" {
		t.Fatal("followees lost")
	}
	if got.MastodonFollowing["7"][0] != "@bob@tiny.town" {
		t.Fatal("mastodon following lost")
	}
	if got.Activity["mastodon.social"][0].Statuses != 10 {
		t.Fatal("activity lost")
	}
}

// TestSaveAtByteIdentical saves one dataset twice with the same
// timestamp: every file must come out byte for byte the same, including
// those built from the dataset's maps, whose iteration order varies from
// one range to the next.
func TestSaveAtByteIdentical(t *testing.T) {
	ds := sampleDataset()
	at := time.Date(2022, 11, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 40; i++ {
		id := strconv.Itoa(1000 + i)
		ds.TwitterTimelines[id] = &crawler.TwitterTimeline{State: crawler.StateOK,
			Posts: []crawler.Post{{ID: id, Time: at, Text: "tweet " + id}}}
		ds.MastodonTimelines[id] = &crawler.MastodonTimeline{State: crawler.StateInstanceDown}
		ds.TwitterFollowees[id] = []crawler.FolloweeRef{{TwitterID: id, Username: "u" + id}}
		ds.MastodonFollowing[id] = []string{"@u" + id + "@tiny.town"}
		ds.Activity["i"+id+".social"] = []crawler.WeekActivity{{Week: at, Statuses: i}}
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	for _, dir := range dirs {
		if err := SaveAt(dir, ds, false, at); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{manifestFile, instancesFile, tweetsFile, pairsFile, twitterTLFile,
		mastoTLFile, followeeFile, mfollowFile, activityFile}
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("saved %d files, want %d", len(entries), len(names))
	}
	for _, name := range names {
		a, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two saves", name)
		}
	}
}

func TestLoadMissingDir(t *testing.T) {
	if _, _, err := Load(t.TempDir()); err == nil {
		t.Fatal("load of empty dir succeeded")
	}
}

func TestAnonymizerStable(t *testing.T) {
	a := NewAnonymizer("salt1")
	if a.Pseudonym("alice") != a.Pseudonym("alice") {
		t.Fatal("pseudonym not stable")
	}
	if a.Pseudonym("alice") == a.Pseudonym("bob") {
		t.Fatal("collision")
	}
	b := NewAnonymizer("salt2")
	if a.Pseudonym("alice") == b.Pseudonym("alice") {
		t.Fatal("salt has no effect")
	}
}

func TestAnonymizeRemovesIdentifiers(t *testing.T) {
	ds := sampleDataset()
	anon := NewAnonymizer("secret").Anonymize(ds)

	// No raw identifiers anywhere.
	if anon.Pairs[0].TwitterUsername == "alice" || anon.Pairs[0].TwitterID == "7" {
		t.Fatal("twitter identity leaked")
	}
	if anon.Pairs[0].Handle.Username == "alice" {
		t.Fatal("mastodon username leaked")
	}
	// Domains are retained by design.
	if anon.Pairs[0].Handle.Domain != "mastodon.social" {
		t.Fatal("domain should be retained")
	}
	if anon.Pairs[0].Moved.Handle.Domain != "tiny.town" {
		t.Fatal("moved domain should be retained")
	}
	// Original untouched.
	if ds.Pairs[0].TwitterUsername != "alice" {
		t.Fatal("input mutated")
	}
}

func TestAnonymizeKeepsJoins(t *testing.T) {
	ds := sampleDataset()
	anon := NewAnonymizer("secret").Anonymize(ds)
	// The pair's pseudonymized TwitterID must still key the timelines
	// and followee maps.
	id := anon.Pairs[0].TwitterID
	if anon.TwitterTimelines[id] == nil {
		t.Fatal("twitter timeline join broken")
	}
	if anon.MastodonTimelines[id] == nil {
		t.Fatal("mastodon timeline join broken")
	}
	if len(anon.TwitterFollowees[id]) != 1 {
		t.Fatal("followee join broken")
	}
	// Followee pseudonyms must be consistent with how a pair for that
	// followee would be pseudonymized.
	a := NewAnonymizer("secret")
	if anon.TwitterFollowees[id][0].TwitterID != a.Pseudonym("8") {
		t.Fatal("followee pseudonym inconsistent")
	}
	// Mastodon following keeps domains.
	h := anon.MastodonFollowing[id][0]
	if !strings.HasSuffix(h, "@tiny.town") {
		t.Fatalf("handle domain lost: %q", h)
	}
	if strings.Contains(h, "bob") {
		t.Fatalf("handle username leaked: %q", h)
	}
}

func TestAnonymizedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	anon := NewAnonymizer("s").Anonymize(sampleDataset())
	if err := Save(dir, anon, true); err != nil {
		t.Fatal(err)
	}
	got, m, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Anonymized {
		t.Fatal("manifest flag lost")
	}
	if got.Coverage().Pairs != 1 {
		t.Fatal("coverage after round trip")
	}
}
