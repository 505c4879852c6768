package textkit

import (
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// refWords is NextWord's contract written with the strings functions it
// must agree with.
func refWords(text, left, right string) []string {
	var out []string
	for _, f := range strings.Fields(text) {
		if w := strings.TrimRight(strings.TrimLeft(strings.ToLower(f), left), right); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// refHashtags is the slice-returning hashtag extractor NextHashtag
// replaced, kept verbatim as its reference.
func refHashtags(text string) []string {
	var out []string
	for _, f := range strings.Fields(text) {
		if strings.HasPrefix(f, "#") && len(f) > 1 {
			tag := strings.ToLower(strings.TrimRight(f, ".,;:!?"))
			if len(tag) > 1 {
				out = append(out, tag)
			}
		}
	}
	return out
}

// words lists the words NextWord yields for text.
func words(text string, cut *Cut) []string {
	var out []string
	var arr [8]byte // small, so long words take the growth path too
	for w, i := NextWord(text, 0, cut, arr[:0]); i >= 0; w, i = NextWord(text, i, cut, arr[:0]) {
		out = append(out, string(w))
	}
	return out
}

// hashtags lists the hashtags NextHashtag yields for text.
func hashtags(text string) []string {
	var out []string
	var arr [64]byte
	for tag, i := NextHashtag(text, 0, arr[:0]); i >= 0; tag, i = NextHashtag(text, i, arr[:0]) {
		out = append(out, string(tag))
	}
	return out
}

func FuzzNextWord(f *testing.F) {
	const index = ".,;:!?()[]\"'—"
	for _, s := range []struct{ text, left, right string }{
		{"Hello, World! (again) [x] 'y' \"z\"", index, index},
		{"bye bye twitter — see you on the other side.", index, index},
		{"—dashed— —— words—.", ".,—", "—!."},
		{"non\u00a0breaking\u2003em\u3000ideographic\u0085next\u2028line", "", ""},
		{"\u0130STANBUL \u0130i \u212a KELVIN \u212aelvin", "i", "k"},
		{"invalid \xff\xfe utf8 \xe2\x80 bytes \xe2\x80.", "\xff.", "\xe2"},
		{"\ufffdreplacement\ufffd", "\ufffd", "\xff"},
		{" \t\n\v\f\r ", ".", "."},
		{"Upper cut: ABBA abba", "a", "A"},
		{"#Tag. #. .#tag ##", "#", ".,;:!?"},
		{"https://mastodon.social/@alice, (url:example.org)", index, index},
		{"x" + strings.Repeat("Y", 100) + "z", "x", "z"},
		{"", "", ""},
	} {
		f.Add(s.text, s.left, s.right)
	}
	f.Fuzz(func(t *testing.T, text, left, right string) {
		got := words(text, NewCut(left, right))
		if want := refWords(text, left, right); !slices.Equal(got, want) {
			t.Fatalf("NextWord(%q, cut %q/%q) = %q, want %q", text, left, right, got, want)
		}
	})
}

func FuzzHashtags(f *testing.F) {
	for _, s := range []string{
		"leaving now #TwitterMigration, hello #Fediverse! plain words #",
		".#tag #. #, ## #.#x #Tag?! #:;",
		"#\u0130stanbul #\u212aelvin #\xff #—dash—\u00a0#nbsp\u3000#ideo",
		"bye bye twitter — see you #ByeByeTwitter #Mastodon",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := hashtags(text), refHashtags(text); !slices.Equal(got, want) {
			t.Fatalf("hashtags(%q) = %q, want %q", text, got, want)
		}
	})
}

func TestHashtagScanAllocatesNothing(t *testing.T) {
	p := gen(4).Post(PostOpts{Topic: TopicMigration, Hashtags: 3, Toxic: true})
	toxic := false
	for _, phrase := range ToxicPhrases() {
		toxic = toxic || strings.Contains(p, phrase)
	}
	if !toxic || len(hashtags(p)) == 0 || !isASCII(p) {
		t.Fatalf("want an ASCII post with hashtags and a toxic phrase, got %q", p)
	}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		var arr [64]byte
		for tag, i := NextHashtag(p, 0, arr[:0]); i >= 0; tag, i = NextHashtag(p, i, arr[:0]) {
			n += len(tag)
		}
	})
	if allocs != 0 {
		t.Fatalf("hashtag scan of %q: %v allocs, want 0", p, allocs)
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
