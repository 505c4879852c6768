package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"flock/internal/httpkit"
)

// pageRecorder passes requests on to d and keeps the body of every 200
// response to a Twitter timeline or search request and to a statuses
// request.
type pageRecorder struct {
	d                 httpkit.Doer
	mu                sync.Mutex
	twitter, statuses [][]byte
}

func (r *pageRecorder) Do(req *http.Request) (*http.Response, error) {
	resp, err := r.d.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	var pages *[][]byte
	switch p := req.URL.Path; {
	case strings.HasSuffix(p, "/tweets") || strings.HasSuffix(p, "/search/all"):
		pages = &r.twitter
	case strings.HasSuffix(p, "/statuses"):
		pages = &r.statuses
	default:
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	r.mu.Lock()
	*pages = append(*pages, body)
	r.mu.Unlock()
	return resp, nil
}

// capturePages crawls a world of the given size and seed and returns the
// bodies of its Twitter timeline and search pages and of its statuses
// pages, as the birdsite and fediverse handlers serve them.
func capturePages(tb testing.TB, migrants int, seed uint64) (twitter, statuses [][]byte) {
	e := newEnv(tb, migrants, seed)
	rec := &pageRecorder{d: e.http}
	cfg := e.config()
	cfg.Transport.HTTP = rec
	if _, err := New(cfg).Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return rec.twitter, rec.statuses
}

// small holds the pages of one small crawl, shared by the tests.
var small struct {
	once              sync.Once
	twitter, statuses [][]byte
}

func smallPages(tb testing.TB) (twitter, statuses [][]byte) {
	small.once.Do(func() { small.twitter, small.statuses = capturePages(tb, 40, 3) })
	return small.twitter, small.statuses
}

// pageSeeds are bodies that each test a rule under which the page
// decoders must match encoding/json or decline: keys folded to a field,
// repeated fields, null for strings, slices and structs, an empty
// array, escapes, invalid UTF-8, trailing bytes, deep nesting and bad
// grammar.
var pageSeeds = []string{
	`{"Data":[{"ID":"1"}]}`,
	`[{"ID":"1","Content":"x"}]`,
	`{"data":[{"id":"1","id":"2"}]}`,
	`[{"id":"1","id":"2"}]`,
	`{"data":[{"id":"1","id":null}]}`,
	`[{"id":"1","id":null}]`,
	`{"data":[{"id":"1","text":"a"}],"data":[{"id":"2"}]}`,
	`{"data":null,"meta":null}`,
	`{"data":[],"meta":{"next_token":null}}`,
	`{"data":[null,{"text":null}]}`,
	`null`,
	`[]`,
	`[null]`,
	`{"data":[{"text":"é😀\ud800A\"\\\/\b\f\n\r\t"}]}`,
	"[{\"content\":\"\xff\xfe\xed\xa0\x80 caf\xc3\xa9\"}]",
	`{"data":[{"text":"x"}]}`,
	"{\"data\":[{\"t\xc4\xb1ext\":\"x\"}]}",
	`{"data":[]} trailing`,
	`[{"id":"1"}]]`,
	`{"data":[{"id":1}]}`,
	`[{"id":true}]`,
	`{"data":{}}`,
	`{"meta":[]}`,
	`{"data":[{"id":"1",}]}`,
	`{"data":[{"id":"1"}`,
	`[{"account":{"moved":{"moved":null},"also_known_as":["a"],"n":-1.5e+3,"t":true,"f":false}}]`,
	`[{"account":` + strings.Repeat("[", 70) + strings.Repeat("]", 70) + `}]`,
	`[{"x":01}]`,
	`[{"x":"\x01"}]`,
	`[{"x":"\u12"}]`,
	`[{"x":"\q"}]`,
	` {"data":[{"source":"Twitter Web App"}],"meta":{"result_count":1,"next_token":"7"}}`,
}

// fuzzPage requires decode to decline body or agree with encoding/json
// decoding it into a zero value, nil slices apart from empty ones.
// Its real seeds are the smallest pages of distinct sizes: the fuzzer
// minimizes each new input it finds, which takes long on big ones.
func fuzzPage[T any](f *testing.F, pages [][]byte, decode func(*T, []byte) bool) {
	pages = slices.SortedFunc(slices.Values(pages), func(a, b []byte) int { return len(a) - len(b) })
	pages = slices.CompactFunc(pages, func(a, b []byte) bool { return len(a) == len(b) })
	for _, p := range pages[:min(len(pages), 4)] {
		f.Add(p)
	}
	for _, s := range pageSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fast, want T
		if !decode(&fast, body) {
			return
		}
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("decoded %q, which encoding/json refuses: %v", body, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("decoded %q as %#v, encoding/json as %#v", body, fast, want)
		}
	})
}

func FuzzSearchPage(f *testing.F) {
	twitter, _ := smallPages(f)
	fuzzPage(f, twitter, (*searchEnvelope).DecodeJSON)
}

func FuzzStatusPage(f *testing.F) {
	_, statuses := smallPages(f)
	fuzzPage(f, statuses, (*statusPage).DecodeJSON)
}

// TestPageDecodersTakeRealPages: the page decoders accept every page a
// crawl fetches, so the crawl never falls back to encoding/json.
func TestPageDecodersTakeRealPages(t *testing.T) {
	twitter, statuses := smallPages(t)
	if len(twitter) == 0 || len(statuses) == 0 {
		t.Fatalf("captured %d Twitter and %d statuses pages", len(twitter), len(statuses))
	}
	for _, p := range twitter {
		if !new(searchEnvelope).DecodeJSON(p) {
			t.Fatalf("declined a Twitter page: %.200s", p)
		}
	}
	for _, p := range statuses {
		if !new(statusPage).DecodeJSON(p) {
			t.Fatalf("declined a statuses page: %.200s", p)
		}
	}
}

// BenchmarkDecodePages decodes every Twitter timeline and search page
// and every statuses page of a crawl of world 99 (300 migrants, the
// paper_300 benchmark's first world), with jsonx and with
// encoding/json.
func BenchmarkDecodePages(b *testing.B) {
	twitter, statuses := capturePages(b, 300, 99)
	for _, c := range []struct {
		name   string
		pages  [][]byte
		decode func([]byte) bool
	}{
		{"twitter/jsonx", twitter, func(p []byte) bool { return new(searchEnvelope).DecodeJSON(p) }},
		{"twitter/encoding_json", twitter, func(p []byte) bool { return json.Unmarshal(p, new(searchEnvelope)) == nil }},
		{"statuses/jsonx", statuses, func(p []byte) bool { return new(statusPage).DecodeJSON(p) }},
		{"statuses/encoding_json", statuses, func(p []byte) bool { return json.Unmarshal(p, new([]MastoStatusJSON)) == nil }},
	} {
		size := 0
		for _, p := range c.pages {
			size += len(p)
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for range b.N {
				for _, p := range c.pages {
					if !c.decode(p) {
						b.Fatal("page not decoded")
					}
				}
			}
		})
	}
}
