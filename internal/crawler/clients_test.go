package crawler

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"flock/internal/httpkit"
	"flock/internal/memnet"
	"flock/internal/randx"
	"flock/internal/textkit"
	"flock/internal/toxsvc"
)

// replyDoer answers every request with 200 and its body.
type replyDoer string

func (d replyDoer) Do(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(string(d))),
		Request:    req,
	}, nil
}

// TestPerspectiveScoreNeedsToxicity: a 200 reply without a TOXICITY
// summary score is an error, so the post keeps -1 like any failed score
// instead of a valid-looking 0.
func TestPerspectiveScoreNeedsToxicity(t *testing.T) {
	ctx := context.Background()
	for _, body := range []string{
		`{"attributeScores":{}}`,
		`{}`,
		`{"attributeScores":{"TOXICITY":null,"INSULT":{"summaryScore":{"value":0.9,"type":"PROBABILITY"}}}}`,
	} {
		p := &PerspectiveClient{Base: "https://" + toxsvc.Host, C: httpkit.New(httpkit.WithDoer(replyDoer(body)))}
		if v, err := p.Score(ctx, "hello"); err == nil {
			t.Errorf("reply %s: score %v, want an error", body, v)
		}
	}
	p := &PerspectiveClient{Base: "https://" + toxsvc.Host, C: httpkit.New(httpkit.WithDoer(replyDoer(scoreReply)))}
	if v, err := p.Score(ctx, "hello"); err != nil || v != 0.25 {
		t.Fatalf("Score = %v, %v; want 0.25", v, err)
	}
}

// scoreReply is a reply scoring 0.25, as the toxsvc handler writes it
// but for its newline.
const scoreReply = `{"attributeScores":{"TOXICITY":{"summaryScore":{"value":0.25,"type":"PROBABILITY"}}}}`

// TestPerspectiveScoreOverTCP scores through net/http's server and
// transport, the path fedisim serves: each text gets the score toxsvc
// gives the text the request carries, which holds U+FFFD for each byte
// of invalid UTF-8.
func TestPerspectiveScoreOverTCP(t *testing.T) {
	srv := httptest.NewServer(toxsvc.New(0).Handler())
	defer srv.Close()
	p := &PerspectiveClient{Base: srv.URL, C: httpkit.New(httpkit.WithDoer(srv.Client()))}
	for _, c := range []struct{ text, scored string }{
		{"you are a complete idiot", "you are a complete idiot"},
		{"lovely weather for a walk today", "lovely weather for a walk today"},
		{"<b>&amp; \"q\"\n\t\xff", "<b>&amp; \"q\"\n\t\uFFFD"},
	} {
		if v, err := p.Score(context.Background(), c.text); err != nil || v != toxsvc.Score(c.scored) {
			t.Errorf("Score(%q) = %v, %v; want %v", c.text, v, err, toxsvc.Score(c.scored))
		}
	}
}

// cutDoer answers every request with 200 and its body, whose last bytes
// come with errReset instead of io.EOF, as memnet's chaos reset cuts a
// reply.
type cutDoer string

var errReset = errors.New("connection reset by peer")

func (d cutDoer) Do(req *http.Request) (*http.Response, error) {
	body := iotest.DataErrReader(io.MultiReader(strings.NewReader(string(d)), iotest.ErrReader(errReset)))
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(body), Request: req}, nil
}

// TestPerspectiveScoreCutReply: a reply that is whole before its read
// fails still scores, with or without its newline, and one cut in the
// middle fails with the read error, wrapped.
func TestPerspectiveScoreCutReply(t *testing.T) {
	for _, c := range []struct {
		body    string
		wantErr bool
	}{
		{scoreReply + "\n", false},
		{scoreReply, false},
		{scoreReply[:strings.Index(scoreReply, "0.25")+3], true},
	} {
		p := &PerspectiveClient{Base: "https://" + toxsvc.Host, C: httpkit.New(httpkit.WithDoer(cutDoer(c.body)))}
		v, err := p.Score(context.Background(), "hello")
		switch {
		case !c.wantErr && (err != nil || v != 0.25):
			t.Errorf("reply %q: Score = %v, %v; want 0.25", c.body, v, err)
		case c.wantErr && !errors.Is(err, errReset):
			t.Errorf("reply %q: Score = %v, %v; want the read error wrapped", c.body, v, err)
		}
	}
}

// countingDoer answers every request with 200 and its body until the
// request's context is done, counting the requests.
type countingDoer struct {
	body  string
	calls atomic.Int64
}

func (d *countingDoer) Do(req *http.Request) (*http.Response, error) {
	d.calls.Add(1)
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	return replyDoer(d.body).Do(req)
}

// TestStatusesRepeatedMaxID: a server that answers every page with the
// same status would send the same max_id forever; the drain stops with
// an error on the second page instead of running until the context
// ends.
func TestStatusesRepeatedMaxID(t *testing.T) {
	doer := &countingDoer{body: `[{"id":"5","created_at":"2022-11-01T00:00:00Z","content":"<p>hi</p>"}]`}
	m := &MastodonClient{C: httpkit.New(httpkit.WithDoer(doer))}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	sts, err := m.Statuses(ctx, "mastodon.example", "1")
	if err == nil || ctx.Err() != nil {
		t.Fatalf("Statuses = %d statuses, err %v, ctx %v; want an error before the deadline", len(sts), err, ctx.Err())
	}
	if n := doer.calls.Load(); n != 2 {
		t.Fatalf("%d requests, want 2", n)
	}
}

// BenchmarkPerspectiveScore scores one post per op through the crawl's
// httpkit client and a memnet fabric to the toxsvc handler.
func BenchmarkPerspectiveScore(b *testing.B) {
	fab := memnet.NewFabric()
	defer fab.Close()
	if _, err := fab.Serve(context.Background(), toxsvc.Host, toxsvc.New(0).Handler()); err != nil {
		b.Fatal(err)
	}
	tox := New(Config{PerspectiveBase: "https://" + toxsvc.Host, Transport: Transport{HTTP: fab.Client()}}).tox
	text := textkit.NewGenerator(randx.New(1)).Post(textkit.PostOpts{Topic: textkit.TopicMigration, Hashtags: 2})
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := tox.Score(ctx, text); err != nil {
			b.Fatal(err)
		}
	}
}
