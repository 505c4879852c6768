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
// encodes Response. Both ends write and read that shape by hand, with
// internal/jsonx: MarshalRequest and the handler's reply append their
// bytes, the handler reads a body MarshalRequest wrote without
// reflection, and Response decodes itself (see Response.DecodeJSON).
// encoding/json decodes every other body the handler receives, and is
// the reference the fuzzers hold both ends to. The requested attributes
// stay a map, so the handler finds TOXICITY by an exact key match: a
// struct field would also match "toxicity" and would read
// "TOXICITY": null as absent.
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
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"flock/internal/jsonx"
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

// The bytes json.Marshal writes around the text of a Request that asks
// for TOXICITY alone, and json.Encoder around the score of a Response.
const (
	requestHead = `{"comment":{"text":`
	requestTail = `},"requestedAttributes":{"TOXICITY":{}}}`
	replyHead   = `{"attributeScores":{"TOXICITY":{"summaryScore":{"value":`
	replyTail   = `,"type":"PROBABILITY"}}}}` + "\n"
)

// MarshalRequest returns the body of a request that scores text for
// TOXICITY alone: the bytes json.Marshal writes for that Request.
func MarshalRequest(text string) []byte {
	b := make([]byte, 0, len(requestHead)+len(text)+2+len(requestTail))
	b = jsonx.AppendString(append(b, requestHead...), text)
	return append(b, requestTail...)
}

// readRequest returns the text of a body MarshalRequest wrote, read as
// json.Unmarshal reads it into a Request, and reports false for any
// other body. Whitespace around the text is allowed, and a null text
// reads as "", as json.Unmarshal leaves it.
func readRequest(body []byte) (string, bool) {
	text, ok := bytes.CutPrefix(body, []byte(requestHead))
	if !ok {
		return "", false
	}
	if text, ok = bytes.CutSuffix(text, []byte(requestTail)); !ok {
		return "", false
	}
	s := jsonx.NewScanner(text)
	t := s.String()
	return t, s.End()
}

// marshalReply returns the reply that carries score: the bytes
// json.Encoder writes for that Response. AppendFloat cannot refuse
// score, which Score keeps in [0, 1], and writes at most 24 bytes.
func marshalReply(score float64) []byte {
	b := make([]byte, 0, len(replyHead)+24+len(replyTail))
	b, _ = jsonx.AppendFloat(append(b, replyHead...), score)
	return append(b, replyTail...)
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

// The keys Response's decoder reads, one list per level.
var (
	responseKeys = []string{"attributeScores"}
	scoresKeys   = []string{"TOXICITY"}
	scoreKeys    = []string{"summaryScore"}
	summaryKeys  = []string{"value", "type"}
)

// DecodeJSON decodes a reply with jsonx, as a json.Decoder's first
// Decode into a zero Response would, or declines it and leaves r as it
// was. "TOXICITY": null leaves Toxicity nil; bytes after the reply are
// not read. Its method set makes Response an httpkit.SelfDecoder.
func (r *Response) DecodeJSON(body []byte) bool {
	s := jsonx.NewScanner(body)
	var resp Response
	s.Object(responseKeys, func(int) {
		s.Object(scoresKeys, func(int) {
			if s.Null() {
				return
			}
			a := new(AttributeScore)
			s.Object(scoreKeys, func(int) {
				s.Object(summaryKeys, func(i int) {
					if i == 0 {
						a.SummaryScore.Value = s.Float()
					} else {
						a.SummaryScore.Type = s.String()
					}
				})
			})
			resp.AttributeScores.Toxicity = a
		})
	})
	if s.Declined() {
		return false
	}
	*r = resp
	return true
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
		// ok: the body requests TOXICITY, as every body MarshalRequest
		// writes does.
		text, ok := readRequest(body)
		if !ok {
			var req Request
			if err := json.Unmarshal(body, &req); err != nil {
				http.Error(w, `{"error":{"code":400,"message":"invalid json"}}`, http.StatusBadRequest)
				return
			}
			text = req.Comment.Text
			_, ok = req.RequestedAttributes["TOXICITY"]
		}
		if text == "" {
			http.Error(w, `{"error":{"code":400,"message":"empty comment"}}`, http.StatusBadRequest)
			return
		}
		if !ok {
			http.Error(w, `{"error":{"code":400,"message":"TOXICITY attribute required"}}`, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(marshalReply(Score(text)))
	})
	return mux
}
