package toxsvc

import (
	"maps"
	"math"
	"strings"
	"sync"
	"testing"

	"flock/internal/randx"
	"flock/internal/textkit"
)

// refBuildLexicon and refScore are the lexicon builder and scorer that
// moved onto textkit.NextWord, kept verbatim as their references.
func refBuildLexicon() map[string]float64 {
	lex := map[string]float64{}
	for _, phrase := range textkit.ToxicPhrases() {
		for _, w := range strings.Fields(strings.ToLower(phrase)) {
			w = strings.Trim(w, ".,!?")
			switch w {
			// Function words and common English words are excluded so
			// ordinary posts don't trip the lexicon.
			case "you", "are", "a", "is", "and", "so", "me", "this", "what",
				"nobody", "wants", "here", "take", "up", "complete", "absolute", "opinion":
				continue
			}
			lex[w] = 0.55
		}
	}
	// A few generic markers beyond the generator pool, so the service is
	// not a pure oracle.
	for _, w := range []string{"hate", "stupid", "awful", "worst"} {
		lex[w] = 0.25
	}
	return lex
}

func refScore(text string) float64 {
	score := 0.03 + 0.04*jitter(text) // clean baseline
	for _, w := range strings.Fields(strings.ToLower(text)) {
		w = strings.Trim(w, ".,!?;:")
		if wt, ok := lexicon[w]; ok {
			score += wt
		}
	}
	if score > 0.98 {
		score = 0.98
	}
	return score
}

func TestLexiconMatchesReference(t *testing.T) {
	if want := refBuildLexicon(); !maps.Equal(lexicon, want) {
		t.Fatalf("lexicon = %v, want %v", lexicon, want)
	}
}

func FuzzScore(f *testing.F) {
	for _, s := range []string{
		"you are a complete idiot",
		"What a PATHETIC take, moron!! shut up; loser: clown? trash. garbage,",
		"thinking about the instance again: admins are volunteers here #fediverse",
		"bye bye twitter — see you IDIOT\u3000moron \u0130diot \u212alown\u00a0\xffidiot",
		"hate stupid awful worst worst worst worst",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := Score(text), refScore(text); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Score(%q) = %v, want %v", text, got, want)
		}
	})
}

func TestScoreAllocatesNothing(t *testing.T) {
	p := textkit.NewGenerator(randx.New(4)).Post(textkit.PostOpts{Topic: textkit.TopicMigration, Hashtags: 3, Toxic: true})
	if !strings.Contains(p, "#") || Score(p) < 0.5 {
		t.Fatalf("want a toxic post with hashtags, got %q (score %v)", p, Score(p))
	}
	for i := 0; i < len(p); i++ {
		if p[i] >= 0x80 {
			t.Fatalf("want an ASCII post, got %q", p)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Score(p) }); allocs != 0 {
		t.Fatalf("Score(%q): %v allocs, want 0", p, allocs)
	}
}

// Score runs on handler goroutines and on analysis workers at once, all
// reading the one lexicon and the shared cuts.
func TestScoreConcurrent(t *testing.T) {
	gen := textkit.NewGenerator(randx.New(9))
	posts := make([]string, 64)
	want := make([]float64, len(posts))
	for i := range posts {
		posts[i] = gen.Post(textkit.PostOpts{Topic: textkit.Topic(i % textkit.NumTopics), Hashtags: 2, Toxic: i%3 == 0})
		want[i] = Score(posts[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range posts {
				if got := Score(p); got != want[i] {
					t.Errorf("Score(%q) = %v concurrently, %v alone", p, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
