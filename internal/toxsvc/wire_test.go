package toxsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flock/internal/randx"
	"flock/internal/textkit"
	"flock/internal/world"
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
// bytes, whether its own reader takes the body or encoding/json does.
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
		{"x", `{"comment":{"text":"x","text":"y"},"requestedAttributes":{"TOXICITY":{}}}`},
		{"x", `{"comment":{"text":"x" "y"},"requestedAttributes":{"TOXICITY":{}}}`},
		{"x", `{"comment":{"text":"x"}},"requestedAttributes":{"TOXICITY":{}}}`},
		{"x", `{"comment":{"text":null},"requestedAttributes":{"TOXICITY":{}}}`},
		{"x", `{"comment":{"text": "\u00e9\ud800\n\/" },"requestedAttributes":{"TOXICITY":{}}}`},
		{"x", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":{}}} `},
		{"x", `{"comment":{"text":"x"},"requestedAttributes":{"TOXICITY":{}}}x`},
		{"x", `[]`},
		{"x", `{`},
		{"x", ``},
	} {
		f.Add(s.text, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, text string, body []byte) {
		got := MarshalRequest(text)
		want, err := refRequestBody(text)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("MarshalRequest(%q) = %q; want %q, %v", text, got, want, err)
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

// replySeeds are bodies that each test a rule under which
// Response.DecodeJSON must match encoding/json or decline: a null or
// empty TOXICITY, keys folded to a field, escaped and non-ASCII keys,
// repeated fields, type mismatches, numbers out of range, -0, nulls,
// bytes after the reply, a cut reply, deep nesting and bad grammar.
var replySeeds = []string{
	`{"attributeScores":{"TOXICITY":null}}`,
	`{"attributeScores":{"TOXICITY":{}}}`,
	`{"attributeScores":{"toxicity":{"summaryScore":{"value":0.5}}}}`,
	`{"AttributeScores":{"TOXICITY":{}}}`,
	`{"attributeScores":{"TOXICITY":{"SummaryScore":{"VALUE":0.5,"Type":"x"}}}}`,
	`{"attribute\u0053cores":{"TOXICITY":{}}}`,
	`{"attributeScores":{"TOXIC\u0049TY":{}}}`,
	"{\"attributeScores\":{\"TOX\xc4\xb0CITY\":{}}}",
	`{"attributeScores":{},"attributeScores":{"TOXICITY":{}}}`,
	`{"attributeScores":{"TOXICITY":null,"TOXICITY":{}}}`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":0.5,"value":null}}}}`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":"0.5"}}}}`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":1e400}}}}`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":-0,"type":null}}}}`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":null,"type":5}}}}`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":null}},"languages":["en"]}`,
	`{"attributeScores":null}`,
	`{"attributeScores":{"INSULT":{"summaryScore":{"value":0.9}},"TOXICITY":{"summaryScore":{"value":1E-7,"type":"PROB\u0041BILITY\ud800"}}}}`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":0.25}}}} trailing`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":0.25}}}}}`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":0.`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":01}}}}`,
	`{"attributeScores":{"TOXICITY":{"x":` + strings.Repeat("[", 70) + strings.Repeat("]", 70) + `}}}`,
	`{"attributeScores":{"TOXICITY":{"summaryScore":{"value":0.5,}}}}`,
	`null`,
	`[]`,
	`"x"`,
	``,
}

// FuzzPerspectiveReply: for any body, Response.DecodeJSON either
// declines it, leaving its receiver unchanged, or decodes what a
// json.Decoder's first Decode into a zero Response decodes, with a nil
// error. reflect.DeepEqual tells a nil Toxicity from a zero one.
func FuzzPerspectiveReply(f *testing.F) {
	for _, text := range []string{"you are a complete idiot", "bye bye twitter", ""} {
		f.Add(serve(New(0).Handler(), MarshalRequest(text)).Body.Bytes())
	}
	for _, s := range replySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast, want Response
		if !fast.DecodeJSON(body) {
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("declined %q but set %#v", body, fast)
			}
			return
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("decoded %q, which encoding/json refuses: %v", body, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("decoded %q as %s, encoding/json as %s", body, describe(fast), describe(want))
		}
	})
}

// describe prints r with its score, which %#v would print as an
// address.
func describe(r Response) string {
	if a := r.AttributeScores.Toxicity; a != nil {
		return fmt.Sprintf("&%#v", *a)
	}
	return "no TOXICITY"
}

// TestWireFastPathsTakeRealPosts: for every tweet and status of a
// generated world, the handler reads the body MarshalRequest writes
// without encoding/json, and its reply decodes through
// Response.DecodeJSON to the text's score.
func TestWireFastPathsTakeRealPosts(t *testing.T) {
	cfg := world.DefaultConfig(100)
	cfg.Seed = 5
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := New(0).Handler()
	n := 0
	check := func(text string) {
		n++
		body := MarshalRequest(text)
		if got, ok := readRequest(body); !ok || got != text {
			t.Fatalf("handler read %q from %s, fast path %v", got, body, ok)
		}
		var r Response
		reply := serve(h, body).Body.Bytes()
		if !r.DecodeJSON(reply) {
			t.Fatalf("declined the reply %q", reply)
		}
		if a := r.AttributeScores.Toxicity; a == nil || a.SummaryScore.Value != Score(text) || a.SummaryScore.Type != "PROBABILITY" {
			t.Fatalf("reply %q to %q decoded as %s; want score %v", reply, text, describe(r), Score(text))
		}
	}
	for u := range w.Users {
		for _, tw := range w.TweetsByUser[u] {
			check(tw.Text)
		}
		for _, st := range w.StatusesByUser[u] {
			check(st.Text)
		}
	}
	if n == 0 {
		t.Fatal("no posts")
	}
}

// BenchmarkPerspectiveWire times the four legs of one Perspective
// exchange, each with jsonx and with encoding/json: the client encoding
// its request, the handler decoding it, the handler encoding its reply
// and the client decoding that.
func BenchmarkPerspectiveWire(b *testing.B) {
	text := textkit.NewGenerator(randx.New(1)).Post(textkit.PostOpts{Topic: textkit.TopicMigration, Hashtags: 2})
	attrs := map[string]struct{}{"TOXICITY": {}}
	score := Score(text)
	body, reply := MarshalRequest(text), marshalReply(score)
	var resp Response
	if err := json.Unmarshal(reply, &resp); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	for _, c := range []struct {
		name string
		leg  func() bool
	}{
		{"request_encode/jsonx", func() bool { return len(MarshalRequest(text)) > 0 }},
		{"request_encode/encoding_json", func() bool {
			_, err := json.Marshal(&Request{Comment: Comment{Text: text}, RequestedAttributes: attrs})
			return err == nil
		}},
		{"request_decode/jsonx", func() bool { _, ok := readRequest(body); return ok }},
		{"request_decode/encoding_json", func() bool { return json.Unmarshal(body, new(Request)) == nil }},
		{"reply_encode/jsonx", func() bool { return len(marshalReply(score)) > 0 }},
		{"reply_encode/encoding_json", func() bool { buf.Reset(); return json.NewEncoder(&buf).Encode(&resp) == nil }},
		{"reply_decode/jsonx", func() bool { return new(Response).DecodeJSON(reply) }},
		{"reply_decode/encoding_json", func() bool {
			return json.NewDecoder(bytes.NewReader(reply)).Decode(new(Response)) == nil
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if !c.leg() {
					b.Fatal("leg failed")
				}
			}
		})
	}
}
