package toxsvc

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
)

// refRequestBody, refRequest, refResponse, refAttributeScore and
// refHandler are the client's request encoding and the service's handler
// before both moved onto Request and Response, kept verbatim as their
// references.
func refRequestBody(text string) ([]byte, error) {
	return json.Marshal(map[string]any{
		"comment":             map[string]string{"text": text},
		"requestedAttributes": map[string]any{"TOXICITY": map[string]any{}},
	})
}

type refRequest struct {
	Comment struct {
		Text string `json:"text"`
	} `json:"comment"`
	RequestedAttributes map[string]struct{} `json:"requestedAttributes"`
	Languages           []string            `json:"languages,omitempty"`
}

type refResponse struct {
	AttributeScores map[string]refAttributeScore `json:"attributeScores"`
}

type refAttributeScore struct {
	SummaryScore struct {
		Value float64 `json:"value"`
		Type  string  `json:"type"`
	} `json:"summaryScore"`
}

func refHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1alpha1/comments:analyze", func(w http.ResponseWriter, r *http.Request) {
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
		var req refRequest
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
		var resp refResponse
		score := refAttributeScore{}
		score.SummaryScore.Value = Score(req.Comment.Text)
		score.SummaryScore.Type = "PROBABILITY"
		resp.AttributeScores = map[string]refAttributeScore{"TOXICITY": score}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
	return mux
}

// serve posts body to h and returns the recorded reply.
func serve(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, Path, bytes.NewReader(body)))
	return rec
}

// FuzzPerspectiveWire: for any text, MarshalRequest encodes the bytes
// the client sent before, and for that body and any raw body the
// handler answers with the reference handler's status, headers and
// bytes.
func FuzzPerspectiveWire(f *testing.F) {
	for _, s := range []struct{ text, body string }{
		{"you are a complete idiot", `{"comment":{"text":"hello"},"requestedAttributes":{"TOXICITY":{}}}`},
		{"<b>&amp; \"quoted\"\n\ttabs   \xff", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":null}}`},
		{"", `{"comment":{"text":"x"},"requestedAttributes":{"toxicity":{}}}`},
		{"bye bye twitter", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":{},"INSULT":{}},"languages":["en"]}`},
		{"x", `{"COMMENT":{"TEXT":"moron"},"RequestedAttributes":{"TOXICITY":{}}}`},
		{"x", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":5}}`},
		{"x", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":{}},"requestedAttributes":{}}`},
		{"x", `{"comment":{"text":"x"},"requestedAttributes":null}`},
		{"x", `{"comment":{"text":""},"requestedAttributes":{"TOXICITY":{}}}`},
		{"x", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":{}},"languages":5}`},
		{"x", `{"comment":"x"}`},
		{"x", `[]`},
		{"x", `{`},
		{"x", ``},
	} {
		f.Add(s.text, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, text string, body []byte) {
		got, gerr := MarshalRequest(text)
		want, werr := refRequestBody(text)
		if !bytes.Equal(got, want) || (gerr == nil) != (werr == nil) {
			t.Fatalf("MarshalRequest(%q) = %q, %v; want %q, %v", text, got, gerr, want, werr)
		}
		for _, b := range [][]byte{got, body} {
			g, w := serve(New(0).Handler(), b), serve(refHandler(New(0)), b)
			if g.Code != w.Code || !maps.EqualFunc(g.Header(), w.Header(), slices.Equal[[]string]) ||
				!bytes.Equal(g.Body.Bytes(), w.Body.Bytes()) {
				t.Fatalf("body %q: handler answered %d %v %q; want %d %v %q",
					b, g.Code, g.Header(), g.Body, w.Code, w.Header(), w.Body)
			}
		}
	})
}
