package textkit

import (
	"strings"
	"testing"

	"flock/internal/randx"
	"flock/internal/textsim"
)

func gen(seed uint64) *Generator {
	return NewGenerator(randx.New(seed))
}

func TestPostNonEmptyAllTopics(t *testing.T) {
	g := gen(1)
	for topic := Topic(0); int(topic) < NumTopics; topic++ {
		p := g.Post(PostOpts{Topic: topic, Hashtags: 2})
		if len(p) < 10 {
			t.Fatalf("topic %s post too short: %q", topic, p)
		}
	}
}

func TestPostDeterministic(t *testing.T) {
	a := gen(5).Post(PostOpts{Topic: TopicTech, Hashtags: 1})
	b := gen(5).Post(PostOpts{Topic: TopicTech, Hashtags: 1})
	if a != b {
		t.Fatalf("non-deterministic: %q vs %q", a, b)
	}
}

func TestPostHashtagsFromTopicPool(t *testing.T) {
	g := gen(2)
	p := g.Post(PostOpts{Topic: TopicMigration, Hashtags: 3})
	tags := hashtags(p)
	if len(tags) == 0 {
		t.Fatalf("no hashtags in %q", p)
	}
	pool := map[string]bool{}
	for _, h := range topics[TopicMigration].hashtags {
		pool[h] = true
	}
	for _, tag := range tags {
		if !pool[tag] {
			t.Fatalf("hashtag %q not in migration pool", tag)
		}
	}
}

func TestPostToxicContainsPhrase(t *testing.T) {
	g := gen(3)
	p := g.Post(PostOpts{Topic: TopicPolitics, Toxic: true})
	found := false
	for _, phrase := range ToxicPhrases() {
		if strings.Contains(p, phrase) {
			found = true
		}
	}
	if !found {
		t.Fatalf("toxic post lacks toxic phrase: %q", p)
	}
}

func TestPostCleanLacksToxicPhrase(t *testing.T) {
	g := gen(4)
	for i := 0; i < 50; i++ {
		p := g.Post(PostOpts{Topic: TopicMusic})
		for _, phrase := range ToxicPhrases() {
			if strings.Contains(p, phrase) {
				t.Fatalf("clean post contains toxic phrase: %q", p)
			}
		}
	}
}

func TestParaphraseSimilarNotIdentical(t *testing.T) {
	g := gen(7)
	for i := 0; i < 30; i++ {
		orig := g.Post(PostOpts{Topic: TopicTech, Hashtags: 1})
		para := g.Paraphrase(orig)
		if para == orig {
			t.Fatalf("paraphrase identical to original: %q", orig)
		}
		if sim := textsim.Similarity(orig, para); sim < textsim.DefaultThreshold {
			t.Fatalf("paraphrase similarity %v below threshold\norig: %q\npara: %q", sim, orig, para)
		}
	}
}

func TestParaphraseEmpty(t *testing.T) {
	if got := gen(8).Paraphrase(""); got != "" {
		t.Fatalf("paraphrase of empty = %q", got)
	}
}

func TestMigrationAnnouncementStyles(t *testing.T) {
	g := gen(9)
	s0 := g.MigrationAnnouncement(0, "alice", "mastodon.social")
	if !strings.Contains(s0, "@alice@mastodon.social") {
		t.Fatalf("style 0 missing handle: %q", s0)
	}
	s1 := g.MigrationAnnouncement(1, "bob", "fosstodon.org")
	if !strings.Contains(s1, "https://fosstodon.org/@bob") {
		t.Fatalf("style 1 missing URL: %q", s1)
	}
	s2 := g.MigrationAnnouncement(2, "carol", "hachyderm.io")
	if strings.Contains(s2, "hachyderm.io") {
		t.Fatalf("style 2 leaked the host: %q", s2)
	}
	if !strings.Contains(s2, "#") {
		t.Fatalf("style 2 missing hashtags: %q", s2)
	}
}

func TestHashtagsExtraction(t *testing.T) {
	tags := hashtags("leaving now #TwitterMigration, hello #Fediverse! plain words #")
	if len(tags) != 2 {
		t.Fatalf("tags = %v", tags)
	}
	if tags[0] != "#twittermigration" || tags[1] != "#fediverse" {
		t.Fatalf("tags = %v", tags)
	}
}

func TestTopicString(t *testing.T) {
	if TopicFediverse.String() != "fediverse" || TopicMusic.String() != "music" {
		t.Fatal("topic names")
	}
	if Topic(99).String() != "unknown" {
		t.Fatal("unknown topic name")
	}
}

func BenchmarkPost(b *testing.B) {
	g := gen(1)
	for i := 0; i < b.N; i++ {
		g.Post(PostOpts{Topic: Topic(i % NumTopics), Hashtags: 2})
	}
}
