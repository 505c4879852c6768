package match

import (
	"testing"
	"testing/quick"
)

var known = NewKnownInstances([]string{"mastodon.social", "fosstodon.org", "sigmoid.social", "Historians.Social"})

func TestExtractAtForm(t *testing.T) {
	hs := Extract("moving! find me at @alice@mastodon.social from now on", known)
	if len(hs) != 1 {
		t.Fatalf("handles = %v", hs)
	}
	if hs[0] != (Handle{Username: "alice", Domain: "mastodon.social"}) {
		t.Fatalf("handle = %v", hs[0])
	}
}

func TestExtractURLForm(t *testing.T) {
	hs := Extract("new home: https://fosstodon.org/@bob — see you there", known)
	if len(hs) != 1 || hs[0].Username != "bob" || hs[0].Domain != "fosstodon.org" {
		t.Fatalf("handles = %v", hs)
	}
}

func TestExtractBothFormsDeduped(t *testing.T) {
	hs := Extract("@carol@sigmoid.social aka https://sigmoid.social/@carol", known)
	if len(hs) != 1 {
		t.Fatalf("expected dedup, got %v", hs)
	}
}

func TestExtractIgnoresEmails(t *testing.T) {
	hs := Extract("contact me at alice@mastodon.social for details", known)
	if len(hs) != 0 {
		t.Fatalf("email extracted as handle: %v", hs)
	}
}

func TestExtractIgnoresUnknownDomains(t *testing.T) {
	hs := Extract("i am @dave@example.com and @dave@mastodon.social", known)
	if len(hs) != 1 || hs[0].Domain != "mastodon.social" {
		t.Fatalf("handles = %v", hs)
	}
}

func TestExtractNilKnownAcceptsAll(t *testing.T) {
	hs := Extract("@eve@anything.example", nil)
	if len(hs) != 1 {
		t.Fatalf("nil whitelist should accept: %v", hs)
	}
}

func TestExtractCaseInsensitiveDomain(t *testing.T) {
	hs := Extract("@frank@Historians.Social", known)
	if len(hs) != 1 || hs[0].Domain != "historians.social" {
		t.Fatalf("handles = %v", hs)
	}
}

func TestExtractMultiple(t *testing.T) {
	hs := Extract("@a@mastodon.social and @b@fosstodon.org", known)
	if len(hs) != 2 {
		t.Fatalf("handles = %v", hs)
	}
}

func TestExtractAtStartOfText(t *testing.T) {
	hs := Extract("@alice@mastodon.social is my new account", known)
	if len(hs) != 1 {
		t.Fatalf("handle at start missed: %v", hs)
	}
}

func TestHandleRoundTripProperty(t *testing.T) {
	f := func(userRaw uint32) bool {
		username := "user" + string(rune('a'+userRaw%26)) + "x"
		h := Handle{Username: username, Domain: "mastodon.social"}
		// Both renderings must re-extract to the same handle.
		for _, text := range []string{"prefix " + h.String() + " suffix", "go to https://" + h.Domain + "/@" + h.Username + " now"} {
			got := Extract(text, known)
			if len(got) != 1 || got[0] != h {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapMetadataFirst(t *testing.T) {
	p := Profile{
		Username:    "alice",
		Description: "researcher. @alice_masto@fosstodon.org",
	}
	tweets := []string{"check out @alice@mastodon.social"} // decoy in tweets
	res, ok := Map(p, tweets, known)
	if !ok {
		t.Fatal("no mapping")
	}
	if res.Source != SourceMetadata {
		t.Fatalf("source = %v", res.Source)
	}
	if res.Handle.Domain != "fosstodon.org" {
		t.Fatalf("metadata handle not preferred: %v", res.Handle)
	}
}

func TestMapTweetRequiresSameUsername(t *testing.T) {
	p := Profile{Username: "alice"}
	// Tweet mentions someone ELSE's handle: must not map.
	if _, ok := Map(p, []string{"you should follow @bob@mastodon.social"}, known); ok {
		t.Fatal("mapped a mention of another user")
	}
	// Tweet with the user's own handle: maps.
	res, ok := Map(p, []string{"bye! @alice@mastodon.social"}, known)
	if !ok || res.Source != SourceTweet {
		t.Fatalf("own-handle tweet did not map: %v %v", res, ok)
	}
}

func TestMapUsernameCaseInsensitive(t *testing.T) {
	p := Profile{Username: "Alice"}
	res, ok := Map(p, []string{"new: @alice@mastodon.social"}, known)
	if !ok || res.Handle.Username != "alice" {
		t.Fatalf("case-insensitive match failed: %v %v", res, ok)
	}
}

func TestMapPinnedTweetCounts(t *testing.T) {
	p := Profile{Username: "gina", PinnedTweet: "i live at https://sigmoid.social/@gina_ai now"}
	res, ok := Map(p, nil, known)
	if !ok || res.Source != SourceMetadata {
		t.Fatalf("pinned tweet not searched: %v %v", res, ok)
	}
}

func TestMapNoMatch(t *testing.T) {
	p := Profile{Username: "harry", Description: "just a normal bio"}
	if _, ok := Map(p, []string{"nothing to see"}, known); ok {
		t.Fatal("phantom mapping")
	}
}

func TestMapLooseAcceptsMentions(t *testing.T) {
	p := Profile{Username: "alice"}
	tweets := []string{"you should follow @bob@mastodon.social"}
	if _, ok := Map(p, tweets, known); ok {
		t.Fatal("strict map accepted a mention")
	}
	res, ok := MapLoose(p, tweets, known)
	if !ok || res.Handle.Username != "bob" {
		t.Fatalf("loose map rejected: %v %v", res, ok)
	}
}

func TestSourceString(t *testing.T) {
	if SourceMetadata.String() != "metadata" || SourceTweet.String() != "tweet" || SourceNone.String() != "none" {
		t.Fatal("source names")
	}
}

func BenchmarkExtract(b *testing.B) {
	text := "that's it, i'm done with this place. find me at @kai_builds77@mastodon.social #TwitterMigration #Mastodon"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Extract(text, known)
	}
}
