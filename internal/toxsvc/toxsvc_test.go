package toxsvc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flock/internal/randx"
	"flock/internal/textkit"
	"flock/internal/world"
)

// analyze posts a request scoring text for TOXICITY to the service at
// url and returns the score and the status code.
func analyze(t *testing.T, url, text string) (float64, int) {
	t.Helper()
	body, err := json.Marshal(Request{Comment: Comment{Text: text}, RequestedAttributes: map[string]struct{}{"TOXICITY": {}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+Path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return 0, resp.StatusCode
	}
	var r Response
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	if r.AttributeScores.Toxicity == nil {
		t.Fatal("200 reply without a TOXICITY score")
	}
	return r.AttributeScores.Toxicity.SummaryScore.Value, 200
}

func TestScoreSeparatesToxicFromClean(t *testing.T) {
	gen := textkit.NewGenerator(randx.New(1))
	for i := 0; i < 50; i++ {
		clean := gen.Post(textkit.PostOpts{Topic: textkit.TopicTech, Hashtags: 1})
		toxic := gen.Post(textkit.PostOpts{Topic: textkit.TopicTech, Toxic: true})
		cs, ts := Score(clean), Score(toxic)
		if cs >= 0.5 {
			t.Fatalf("clean post scored %v: %q", cs, clean)
		}
		if ts <= 0.5 {
			t.Fatalf("toxic post scored %v: %q", ts, toxic)
		}
	}
}

func TestScoreBounds(t *testing.T) {
	texts := []string{"", "hello", "idiot moron trash garbage pathetic loser clown idiot moron"}
	for _, txt := range texts {
		s := Score(txt)
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of range for %q", s, txt)
		}
	}
}

func TestScoreDeterministic(t *testing.T) {
	if Score("some fixed text") != Score("some fixed text") {
		t.Fatal("score not deterministic")
	}
}

func TestGroundTruthRecovery(t *testing.T) {
	// Score every migrant tweet in a small world; thresholding at 0.5
	// must recover the planted toxicity labels with high agreement.
	cfg := world.DefaultConfig(100)
	cfg.Seed = 5
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tp, fp, fn, tn int
	for _, u := range w.Migrants {
		for _, tweet := range w.TweetsByUser[u] {
			pred := Score(tweet.Text) > 0.5
			switch {
			case pred && tweet.Toxic:
				tp++
			case pred && !tweet.Toxic:
				fp++
			case !pred && tweet.Toxic:
				fn++
			default:
				tn++
			}
		}
	}
	total := tp + fp + fn + tn
	if total == 0 {
		t.Fatal("no tweets")
	}
	acc := float64(tp+tn) / float64(total)
	if acc < 0.95 {
		t.Fatalf("scorer accuracy %v (tp=%d fp=%d fn=%d tn=%d)", acc, tp, fp, fn, tn)
	}
	if tp == 0 {
		t.Fatal("no true positives: no toxic signal planted?")
	}
}

func TestHTTPAnalyze(t *testing.T) {
	srv := httptest.NewServer(New(0).Handler())
	defer srv.Close()
	score, code := analyze(t, srv.URL, "you are a complete idiot")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if score <= 0.5 {
		t.Fatalf("toxic text scored %v over HTTP", score)
	}
	score, _ = analyze(t, srv.URL, "lovely weather for a walk today")
	if score >= 0.5 {
		t.Fatalf("clean text scored %v over HTTP", score)
	}
}

// TestHTTPValidation pins the service's answer to raw bodies. The
// requested attributes are a set of exact keys: a null TOXICITY value
// still requests it, a lowercase key does not, and other attributes are
// ignored.
func TestHTTPValidation(t *testing.T) {
	srv := httptest.NewServer(New(0).Handler())
	defer srv.Close()
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"valid", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":{}}}`, http.StatusOK},
		{"missing TOXICITY", `{"comment":{"text":"x"},"requestedAttributes":{"SEVERE_TOXICITY":{}}}`, http.StatusBadRequest},
		{"null TOXICITY", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":null}}`, http.StatusOK},
		{"lowercase toxicity", `{"comment":{"text":"x"},"requestedAttributes":{"toxicity":{}}}`, http.StatusBadRequest},
		{"extra INSULT", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":{},"INSULT":{}}}`, http.StatusOK},
		{"empty text", `{"comment":{"text":""},"requestedAttributes":{"TOXICITY":{}}}`, http.StatusBadRequest},
		{"bad JSON", `{`, http.StatusBadRequest},
		// Past 1 MiB the body is cut, and the rest does not parse.
		{"over 1 MiB", `{"comment":{"text":"` + strings.Repeat("x", 1<<20) + `"},"requestedAttributes":{"TOXICITY":{}}}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+Path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestQPSLimit(t *testing.T) {
	srv := httptest.NewServer(New(2).Handler())
	defer srv.Close()
	var last int
	for i := 0; i < 3; i++ {
		_, last = analyze(t, srv.URL, "hello world")
	}
	if last != http.StatusTooManyRequests {
		t.Fatalf("3rd call status %d, want 429", last)
	}
}

func BenchmarkScore(b *testing.B) {
	text := "thinking about the instance again: admins are volunteers here #fediverse"
	for i := 0; i < b.N; i++ {
		Score(text)
	}
}
