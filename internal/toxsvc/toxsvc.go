// Package toxsvc simulates Google Jigsaw's Perspective API, which the
// paper used to score every tweet and status for toxicity (§6.3). It
// exposes the same request/response shape (comments:analyze with a
// TOXICITY attribute returning a summary score in [0,1]) and a QPS
// limit, so the crawler-side client code matches real Perspective
// integrations.
//
// Request and Response are the one wire shape of that exchange: the
// crawler's Perspective client encodes its body with MarshalRequest and
// decodes the reply into Response, and the handler decodes Request and
// encodes Response. The requested attributes stay a map, so the handler
// finds TOXICITY by an exact key match: a struct field would also match
// "toxicity" and would read "TOXICITY": null as absent.
//
// Scoring is a transparent lexicon model: the toxic phrases the world
// generator plants (see textkit.ToxicPhrases) decompose into a word
// lexicon; a post's score grows with lexicon hits and is stable and
// deterministic. Clean posts score low with a small text-hash jitter so
// CDFs look natural rather than two spikes. The model's agreement with
// the planted ground truth is measured in tests (it is intentionally not
// 100%: Perspective misclassifies too, and the analysis must tolerate
// that).
package toxsvc

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"flock/internal/textkit"
	"flock/internal/vclock"
)

// Host is the hostname the scorer binds on the fabric.
const Host = "perspective.test"

// Path is the comments:analyze endpoint, relative to the service's base
// URL.
const Path = "/v1alpha1/comments:analyze"

// Request is the comments:analyze request body subset.
type Request struct {
	Comment             Comment             `json:"comment"`
	RequestedAttributes map[string]struct{} `json:"requestedAttributes"`
	Languages           []string            `json:"languages,omitempty"`
}

// Comment is the text a request scores.
type Comment struct {
	Text string `json:"text"`
}

// toxicityOnly is the attribute set MarshalRequest sends. It is only
// ever encoded, never modified.
var toxicityOnly = map[string]struct{}{"TOXICITY": {}}

// MarshalRequest returns the body of a request that scores text for
// TOXICITY alone.
func MarshalRequest(text string) ([]byte, error) {
	return json.Marshal(&Request{Comment: Comment{Text: text}, RequestedAttributes: toxicityOnly})
}

// Response is the comments:analyze response subset. The service scores
// TOXICITY only; a reply without that score leaves Toxicity nil.
type Response struct {
	AttributeScores struct {
		Toxicity *AttributeScore `json:"TOXICITY,omitempty"`
	} `json:"attributeScores"`
}

// AttributeScore carries the summary score of one attribute.
type AttributeScore struct {
	SummaryScore struct {
		Value float64 `json:"value"`
		Type  string  `json:"type"`
	} `json:"summaryScore"`
}

// lexicon maps toxic markers to weights. Built from the same phrase pool
// the generator injects, split into words, so the signal is recoverable
// but not by exact phrase matching.
var lexicon = buildLexicon()

// lexiconCut and scoreCut strip punctuation from the words of the phrase
// pool and of a scored text.
var (
	lexiconCut = textkit.NewCut(".,!?", ".,!?")
	scoreCut   = textkit.NewCut(".,!?;:", ".,!?;:")
)

func buildLexicon() map[string]float64 {
	lex := map[string]float64{}
	var arr [64]byte
	for _, phrase := range textkit.ToxicPhrases() {
		for b, i := textkit.NextWord(phrase, 0, lexiconCut, arr[:0]); i >= 0; b, i = textkit.NextWord(phrase, i, lexiconCut, arr[:0]) {
			w := string(b)
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

// Score computes the toxicity of text in [0, 1]. Exported so analyses and
// tests can score without HTTP overhead when measuring the scorer itself.
func Score(text string) float64 {
	score := 0.03 + 0.04*jitter(text) // clean baseline
	var arr [64]byte
	for w, i := textkit.NextWord(text, 0, scoreCut, arr[:0]); i >= 0; w, i = textkit.NextWord(text, i, scoreCut, arr[:0]) {
		if wt, ok := lexicon[string(w)]; ok {
			score += wt
		}
	}
	if score > 0.98 {
		score = 0.98
	}
	return score
}

// jitter maps text to a stable value in [0,1).
func jitter(text string) float64 {
	h := uint32(2166136261)
	for i := 0; i < len(text); i++ {
		h = (h ^ uint32(text[i])) * 16777619
	}
	return float64(h%1000) / 1000
}

// Service is the HTTP scorer with a QPS limit.
type Service struct {
	mu       sync.Mutex
	qps      int
	winStart time.Time
	winCount int
}

// New returns a scorer allowing qps requests per second (0 = unlimited).
func New(qps int) *Service {
	return &Service{qps: qps}
}

func (s *Service) allow() bool {
	if s.qps <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := vclock.Wall()
	if now.Sub(s.winStart) >= time.Second {
		s.winStart = now
		s.winCount = 0
	}
	if s.winCount >= s.qps {
		return false
	}
	s.winCount++
	return true
}

// Handler returns the HTTP handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+Path, func(w http.ResponseWriter, r *http.Request) {
		if !s.allow() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":{"code":429,"status":"RESOURCE_EXHAUSTED"}}`, http.StatusTooManyRequests)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, `{"error":{"code":400}}`, http.StatusBadRequest)
			return
		}
		var req Request
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, `{"error":{"code":400,"message":"invalid json"}}`, http.StatusBadRequest)
			return
		}
		if req.Comment.Text == "" {
			http.Error(w, `{"error":{"code":400,"message":"empty comment"}}`, http.StatusBadRequest)
			return
		}
		if _, ok := req.RequestedAttributes["TOXICITY"]; !ok {
			http.Error(w, `{"error":{"code":400,"message":"TOXICITY attribute required"}}`, http.StatusBadRequest)
			return
		}
		var score AttributeScore
		score.SummaryScore.Value = Score(req.Comment.Text)
		score.SummaryScore.Type = "PROBABILITY"
		var resp Response
		resp.AttributeScores.Toxicity = &score
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(&resp)
	})
	return mux
}
