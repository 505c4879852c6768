package birdsite

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"flock/internal/world"
)

// refIndexTokens is the per-tweet tokenizer the one-pass index build
// replaced, kept verbatim as its reference.
func refIndexTokens(text string) []string {
	seen := map[string]bool{}
	var out []string
	add := func(tok string) {
		if tok != "" && !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	for _, m := range urlRe.FindAllStringSubmatch(text, -1) {
		add("url:" + strings.ToLower(m[1]))
	}
	clean := urlRe.ReplaceAllString(text, " ")
	for _, f := range strings.Fields(strings.ToLower(clean)) {
		f = strings.Trim(f, ".,;:!?()[]\"'—")
		if f == "" {
			continue
		}
		if strings.HasPrefix(f, "#") {
			add(f)
			add(strings.TrimPrefix(f, "#"))
			continue
		}
		add(f)
	}
	return out
}

// refIndex is the corpus sort and index build New replaced, kept verbatim
// as its reference.
func refIndex(w *world.World) ([]tweetRef, map[string][]int32) {
	s := &Service{w: w, postings: make(map[string][]int32)}
	for uid, tweets := range w.TweetsByUser {
		for i := range tweets {
			s.tweets = append(s.tweets, tweetRef{UserID: uid, Idx: i})
		}
	}
	sort.Slice(s.tweets, func(a, b int) bool {
		ta, tb := s.get(s.tweets[a]), s.get(s.tweets[b])
		if !ta.Time.Equal(tb.Time) {
			return ta.Time.Before(tb.Time)
		}
		return ta.ID < tb.ID
	})
	for pos, ref := range s.tweets {
		tw := s.get(ref)
		for _, tok := range refIndexTokens(tw.Text) {
			s.postings[tok] = append(s.postings[tok], int32(pos))
		}
		// from: operator support.
		s.postings["from:"+strings.ToLower(s.w.Users[ref.UserID].Username)] = append(
			s.postings["from:"+strings.ToLower(s.w.Users[ref.UserID].Username)], int32(pos))
	}
	return s.tweets, s.postings
}

// TestIndexMatchesReference builds each index at GOMAXPROCS 1, 2 and 3,
// so New cuts the corpus into 2, 4 and 6 ranges, and compares each with
// the reference's serial build.
func TestIndexMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, migrants := range []int{60, 300} {
		cfg := world.DefaultConfig(migrants)
		cfg.Seed = 99
		w, err := world.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tweets, postings := refIndex(w)
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			s := New(w)
			if !reflect.DeepEqual(s.tweets, tweets) {
				t.Errorf("%d migrants, GOMAXPROCS %d: corpus order differs from the reference", migrants, procs)
			}
			if !reflect.DeepEqual(s.postings, postings) {
				t.Errorf("%d migrants, GOMAXPROCS %d: postings differ from the reference (%d tokens, want %d)",
					migrants, procs, len(s.postings), len(postings))
			}
		}
	}
}

func FuzzIndexTokens(f *testing.F) {
	for _, s := range []string{
		"bye bye twitter — see you on the other side. #ByeByeTwitter #Mastodon",
		"new home: https://Mastodon.Social/@alice, http://x.org/a?b=1 (https://y.net) url:mastodon.social",
		"#tag #tag tag # ## (#paren) [x] 'q' \"dq\" #.",
		"from:alice From:Alice url:x.org https://x.org",
		"\u0130STANBUL \u212aelvin \xff\xfe —dash—\u00a0nbsp\u3000https://\u0130.org",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		// A fresh indexer numbers tokens in first-seen order, so its keys
		// are the tweet's tokens in the order the reference lists them.
		ix := &indexer{ids: make(map[string]int32)}
		ix.addText(text, 7)
		if want := refIndexTokens(text); !slices.Equal(ix.keys, want) {
			t.Fatalf("tokens of %q = %q, want %q", text, ix.keys, want)
		}
		for id, l := range ix.lists {
			if !slices.Equal(l, []int32{7}) {
				t.Fatalf("token %q of %q posted %v, want [7]", ix.keys[id], text, l)
			}
		}
	})
}
