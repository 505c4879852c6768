package httpkit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeDoer scripts responses for the client under test.
type fakeDoer struct {
	mu    sync.Mutex
	calls int
	fn    func(call int, req *http.Request) (*http.Response, error)
}

func (f *fakeDoer) Do(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	return f.fn(n, req)
}

func respond(code int, body string, hdr map[string]string) *http.Response {
	h := http.Header{}
	for k, v := range hdr {
		h.Set(k, v)
	}
	return &http.Response{
		StatusCode: code,
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(body)),
	}
}

func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestDoSuccess(t *testing.T) {
	c := New(
		WithDoer(&fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
			return respond(200, "ok", nil), nil
		}}),
		WithSleep(noSleep),
	)
	req, _ := http.NewRequest("GET", "https://x.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("body %q", body)
	}
	if s := c.Stats(); s.Requests != 1 || s.Retries != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestDoRetriesTransient5xx(t *testing.T) {
	fd := &fakeDoer{fn: func(call int, _ *http.Request) (*http.Response, error) {
		if call < 3 {
			return respond(503, "unavailable", nil), nil
		}
		return respond(200, "finally", nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(noSleep))
	req, _ := http.NewRequest("GET", "https://x.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fd.calls != 3 {
		t.Fatalf("calls = %d, want 3", fd.calls)
	}
	if s := c.Stats(); s.Retries != 2 {
		t.Fatalf("retries = %d", s.Retries)
	}
}

func TestDoHonours429ResetHeader(t *testing.T) {
	var slept []time.Duration
	fd := &fakeDoer{fn: func(call int, _ *http.Request) (*http.Response, error) {
		if call == 1 {
			return respond(429, "rate limited", map[string]string{
				"x-rate-limit-reset": strconv.FormatInt(time.Now().Add(2*time.Second).Unix(), 10),
			}), nil
		}
		return respond(200, "ok", nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}))
	req, _ := http.NewRequest("GET", "https://x.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(slept) != 1 {
		t.Fatalf("slept %v times", len(slept))
	}
	if slept[0] < 500*time.Millisecond || slept[0] > 3*time.Second {
		t.Fatalf("slept %v, want about 2s", slept[0])
	}
	if c.Stats().RateLimited != 1 {
		t.Fatal("429 not counted")
	}
}

func TestDoHonoursRetryAfterSeconds(t *testing.T) {
	var slept time.Duration
	fd := &fakeDoer{fn: func(call int, _ *http.Request) (*http.Response, error) {
		if call == 1 {
			return respond(429, "", map[string]string{"Retry-After": "3"}), nil
		}
		return respond(200, "ok", nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(func(ctx context.Context, d time.Duration) error {
		slept = d
		return nil
	}))
	req, _ := http.NewRequest("GET", "https://x.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if slept != 3*time.Second {
		t.Fatalf("slept %v, want 3s", slept)
	}
}

// TestDoHonoursMastodonRateLimitReset: a Mastodon 429 carries its reset
// time as an ISO 8601 X-RateLimit-Reset and may omit Retry-After; the
// client waits until the reset instead of backing off exponentially.
func TestDoHonoursMastodonRateLimitReset(t *testing.T) {
	now := time.Date(2023, 2, 1, 12, 0, 0, 0, time.UTC)
	// The simulator's layout, and Mastodon's with milliseconds.
	for _, layout := range []string{time.RFC3339, "2006-01-02T15:04:05.000Z07:00"} {
		var slept []time.Duration
		fd := &fakeDoer{fn: func(call int, _ *http.Request) (*http.Response, error) {
			if call == 1 {
				return respond(429, "", map[string]string{
					"X-RateLimit-Reset": now.Add(7 * time.Second).Format(layout),
				}), nil
			}
			return respond(200, "ok", nil), nil
		}}
		c := New(
			WithDoer(fd),
			WithClock(func() time.Time { return now }),
			WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Second, MaxDelay: time.Minute}),
			WithSleep(func(ctx context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			}),
		)
		req, _ := http.NewRequest("GET", "https://x.example/", nil)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(slept) != 1 || slept[0] != 7*time.Second {
			t.Fatalf("layout %q: slept %v, want [7s] (until the reset)", layout, slept)
		}
	}
}

func TestDoTerminal404(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
		return respond(404, "not found", nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(noSleep))
	req, _ := http.NewRequest("GET", "https://x.example/missing", nil)
	_, err := c.Do(req)
	if !IsStatus(err, 404) {
		t.Fatalf("err = %v, want 404 StatusError", err)
	}
	if fd.calls != 1 {
		t.Fatalf("404 was retried %d times", fd.calls)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Body != "not found" {
		t.Fatalf("StatusError body missing: %+v", se)
	}
}

func TestDoExhaustsRetries(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
		return respond(500, "boom", nil), nil
	}}
	c := New(WithDoer(fd), WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}), WithSleep(noSleep))
	req, _ := http.NewRequest("GET", "https://x.example/", nil)
	_, err := c.Do(req)
	if !IsStatus(err, 500) {
		t.Fatalf("err = %v", err)
	}
	if fd.calls != 3 {
		t.Fatalf("calls = %d, want 3", fd.calls)
	}
}

func TestDoNetworkErrorRetried(t *testing.T) {
	fd := &fakeDoer{fn: func(call int, _ *http.Request) (*http.Response, error) {
		if call == 1 {
			return nil, errors.New("connection reset")
		}
		return respond(200, "ok", nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(noSleep))
	req, _ := http.NewRequest("GET", "https://x.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

func TestDoContextCancelStopsRetry(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
		return respond(503, "", nil), nil
	}}
	ctx, cancel := context.WithCancel(context.Background())
	c := New(WithDoer(fd), WithSleep(func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}))
	req, _ := http.NewRequestWithContext(ctx, "GET", "https://x.example/", nil)
	_, err := c.Do(req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestAuthAndUserAgentHeaders(t *testing.T) {
	var gotUA string
	sentAuth := false
	fd := &fakeDoer{fn: func(_ int, req *http.Request) (*http.Response, error) {
		_, sentAuth = req.Header["Authorization"]
		gotUA = req.Header.Get("User-Agent")
		return respond(200, "{}", nil), nil
	}}
	c := New(WithDoer(fd), WithUserAgent("flock/1.0"), WithSleep(noSleep))
	var out map[string]any
	if err := c.GetJSON(context.Background(), "https://x.example/api", &out); err != nil {
		t.Fatal(err)
	}
	if sentAuth || gotUA != "flock/1.0" {
		t.Fatalf("headers: Authorization sent=%v ua=%q", sentAuth, gotUA)
	}
}

// TestDoKeepsCallerRequest: a client with a User-Agent stamps it on
// every attempt, the retry and the hedged backup included, next to the
// caller's own headers, and leaves the caller's request as it was. The
// retried POST carries its whole body, and a request with no header map
// is sent with one of its own.
func TestDoKeepsCallerRequest(t *testing.T) {
	const ua = "flock/1.0"
	callerReq := func(method string, body io.Reader) *http.Request {
		req, _ := http.NewRequest(method, "https://h.example/r", body)
		req.Header.Set("X-Caller", "1")
		return req
	}
	// stamped reports an attempt that lacks either header.
	stamped := func(call int, req *http.Request) error {
		if req.Header.Get("X-Caller") != "1" || req.Header.Get("User-Agent") != ua {
			return fmt.Errorf("attempt %d sent headers %v", call, req.Header)
		}
		return nil
	}
	unchanged := func(req *http.Request) {
		t.Helper()
		if want := (http.Header{"X-Caller": {"1"}}); !reflect.DeepEqual(req.Header, want) {
			t.Errorf("caller's headers became %v, want %v", req.Header, want)
		}
	}

	fd := &fakeDoer{fn: func(call int, req *http.Request) (*http.Response, error) {
		body, err := io.ReadAll(req.Body)
		if err == nil && string(body) != "payload" {
			err = fmt.Errorf("attempt %d sent %q", call, body)
		}
		if err == nil {
			err = stamped(call, req)
		}
		if err != nil {
			t.Error(err)
			return nil, err
		}
		if call == 1 {
			return respond(503, "", nil), nil
		}
		return respond(200, "ok", nil), nil
	}}
	req := callerReq("POST", strings.NewReader("payload"))
	resp, err := New(WithDoer(fd), WithUserAgent(ua), WithSleep(noSleep)).Do(req)
	if err != nil || fd.calls != 2 {
		t.Fatalf("retried POST: %v after %d attempts, want success after 2", err, fd.calls)
	}
	resp.Body.Close()
	unchanged(req)

	var arrivals atomic.Int32
	pol := HedgePolicy{Percentile: 0.9, MinSamples: 4, BudgetFrac: 1.0, MinDelay: 5 * time.Millisecond}
	c := warmClient(t, pol, func(call int, req *http.Request) (*http.Response, error) {
		if err := stamped(call, req); err != nil {
			t.Error(err)
		}
		// The primary wedges until the race cancels it; the backup wins.
		if arrivals.Add(1) == 1 {
			<-req.Context().Done()
			return nil, req.Context().Err()
		}
		return respond(200, "hedged", nil), nil
	}, WithUserAgent(ua))
	req = callerReq("GET", nil)
	if resp, err = c.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s := c.Stats(); s.HedgesFired != 1 || s.HedgeWins != 1 || arrivals.Load() != 2 {
		t.Fatalf("stats %+v after %d attempts, want one hedge fired and won", s, arrivals.Load())
	}
	unchanged(req)

	fd = &fakeDoer{fn: func(call int, req *http.Request) (*http.Response, error) {
		if got := req.Header.Get("User-Agent"); got != ua {
			t.Errorf("attempt %d sent User-Agent %q, want %q", call, got, ua)
		}
		return respond(200, "ok", nil), nil
	}}
	req = &http.Request{Method: "GET", URL: callerReq("GET", nil).URL}
	if resp, err = New(WithDoer(fd), WithUserAgent(ua)).Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if req.Header != nil {
		t.Errorf("caller's nil header map became %v", req.Header)
	}
}

func TestGetJSONDecodes(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
		return respond(200, `{"name":"mastodon.social","users":100}`, nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(noSleep))
	var out struct {
		Name  string `json:"name"`
		Users int    `json:"users"`
	}
	if err := c.GetJSON(context.Background(), "https://x.example/", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "mastodon.social" || out.Users != 100 {
		t.Fatalf("decoded %+v", out)
	}
}

func TestGetJSONBadJSON(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
		return respond(200, `{"name":`, nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(noSleep))
	var out map[string]any
	if err := c.GetJSON(context.Background(), "https://x.example/", &out); err == nil {
		t.Fatal("bad JSON decoded without error")
	}
}

// cutBody is a response body that ends in err instead of io.EOF, in the
// same Read as its last bytes, as memnet's chaos reset does.
type cutBody struct {
	data []byte
	err  error
}

func (b *cutBody) Read(p []byte) (int, error) {
	n := copy(p, b.data)
	b.data = b.data[n:]
	if len(b.data) == 0 {
		return n, b.err
	}
	return n, nil
}

func (b *cutBody) Close() error { return nil }

var errCut = errors.New("connection reset by peer")

// plainPage is a GetJSON destination that encoding/json decodes.
type plainPage struct {
	Name  string `json:"name"`
	Users int    `json:"users"`
}

// selfPage is a GetJSON destination that decodes itself, as the first
// value of body would decode into a zero plainPage.
type selfPage plainPage

func (p *selfPage) DecodeJSON(body []byte) bool {
	var v plainPage
	if json.NewDecoder(bytes.NewReader(body)).Decode(&v) != nil {
		return false
	}
	*p = selfPage(v)
	return true
}

// TestGetJSONReadError pins what GetJSON makes of a body whose read
// fails after some bytes: a value that is whole before the failure
// decodes and GetJSON returns nil, with or without its newline; a value
// cut in the middle fails with the read error, wrapped. Each case runs
// with a destination encoding/json decodes and one that decodes itself.
func TestGetJSONReadError(t *testing.T) {
	const u = "https://x.example/p"
	for _, c := range []struct {
		body    string
		wantErr bool
	}{
		{"{\"name\":\"a\",\"users\":3}\n", false},
		{`{"name":"a","users":3}`, false},
		{`{"name":"a","us`, true},
	} {
		for _, out := range []any{new(plainPage), new(selfPage)} {
			fd := &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
				return &http.Response{StatusCode: 200, Header: http.Header{}, Body: &cutBody{[]byte(c.body), errCut}}, nil
			}}
			err := New(WithDoer(fd), WithSleep(noSleep)).GetJSON(context.Background(), u, out)
			got := fmt.Sprint(out)
			switch {
			case !c.wantErr && err != nil:
				t.Errorf("%T from %q: %v", out, c.body, err)
			case !c.wantErr && got != "&{a 3}":
				t.Errorf("%T from %q decoded %s", out, c.body, got)
			case c.wantErr && (!errors.Is(err, errCut) || err.Error() != "httpkit: decoding "+u+": "+errCut.Error()):
				t.Errorf("%T from %q: error %v, want the read error wrapped", out, c.body, err)
			}
		}
	}
}

// choosy decodes itself to Name "self" when it accepts, and declines
// otherwise.
type choosy struct {
	Name   string `json:"name"`
	accept bool
}

func (c *choosy) DecodeJSON([]byte) bool {
	if c.accept {
		c.Name = "self"
	}
	return c.accept
}

// TestGetJSONSelfDecoder: GetJSON hands the body to a destination that
// decodes itself, and decodes it with encoding/json when that declines.
func TestGetJSONSelfDecoder(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
		return respond(200, `{"name":"json"}`, nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(noSleep))
	for accept, want := range map[bool]string{true: "self", false: "json"} {
		out := &choosy{accept: accept}
		if err := c.GetJSON(context.Background(), "https://x.example/", out); err != nil || out.Name != want {
			t.Errorf("accept=%v: decoded %q, %v; want %q", accept, out.Name, err, want)
		}
	}
}

// TestPostJSONRetries: PostJSON sends its body as application/json on
// every attempt, so a retried POST carries the whole body again, and it
// decodes the reply as GetJSON does.
func TestPostJSONRetries(t *testing.T) {
	fd := &fakeDoer{fn: func(call int, req *http.Request) (*http.Response, error) {
		body, err := io.ReadAll(req.Body)
		if err != nil || string(body) != `{"q":1}` || req.Header.Get("Content-Type") != "application/json" {
			return nil, fmt.Errorf("attempt %d sent %q (%v) as %q", call, body, err, req.Header.Get("Content-Type"))
		}
		if call == 1 {
			return respond(503, "", nil), nil
		}
		return respond(200, `{"name":"a","users":3}`, nil), nil
	}}
	var out plainPage
	err := New(WithDoer(fd), WithSleep(noSleep)).PostJSON(context.Background(), "https://x.example/q", []byte(`{"q":1}`), &out)
	if err != nil || out != (plainPage{"a", 3}) || fd.calls != 2 {
		t.Fatalf("PostJSON = %v, decoded %+v in %d attempts; want {a 3} in 2", err, out, fd.calls)
	}
}

func TestPaginate(t *testing.T) {
	pages := map[string]Page[int]{
		"":   {Items: []int{1, 2}, Next: "p2"},
		"p2": {Items: []int{3}, Next: "p3"},
		"p3": {Items: []int{4, 5}, Next: ""},
	}
	got, err := Paginate(context.Background(), func(_ context.Context, tok string) (Page[int], error) {
		return pages[tok], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Fatalf("got %v", got)
	}
}

func TestPaginateStuckToken(t *testing.T) {
	_, err := Paginate(context.Background(), func(_ context.Context, tok string) (Page[int], error) {
		return Page[int]{Next: "same"}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("err = %v", err)
	}
}

func TestPaginatePartialOnError(t *testing.T) {
	got, err := Paginate(context.Background(), func(_ context.Context, tok string) (Page[int], error) {
		if tok == "" {
			return Page[int]{Items: []int{1}, Next: "p2"}, nil
		}
		return Page[int]{}, errors.New("boom")
	})
	if err == nil {
		t.Fatal("want error")
	}
	if len(got) != 1 {
		t.Fatalf("partial items lost: %v", got)
	}
}

func TestRetryPolicyDelayCapped(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Second, MaxDelay: 4 * time.Second}
	if d := p.delay(1); d != time.Second {
		t.Fatalf("delay(1) = %v", d)
	}
	if d := p.delay(2); d != 2*time.Second {
		t.Fatalf("delay(2) = %v", d)
	}
	if d := p.delay(8); d != 4*time.Second {
		t.Fatalf("delay(8) = %v, want cap", d)
	}
}

func TestRetryAfterHTTPDate(t *testing.T) {
	now := time.Date(2023, 2, 1, 12, 0, 0, 0, time.UTC)
	resp := respond(429, "", map[string]string{
		"Retry-After": now.Add(90 * time.Second).Format(http.TimeFormat),
	})
	d, ok := retryAfter(resp, now)
	if !ok {
		t.Fatal("HTTP-date Retry-After not parsed")
	}
	if d != 90*time.Second {
		t.Fatalf("d = %v, want 90s", d)
	}
}

func TestRetryAfterPastHTTPDateNegative(t *testing.T) {
	now := time.Date(2023, 2, 1, 12, 0, 0, 0, time.UTC)
	resp := respond(429, "", map[string]string{
		"Retry-After": now.Add(-time.Minute).Format(http.TimeFormat),
	})
	d, ok := retryAfter(resp, now)
	if !ok || d >= 0 {
		t.Fatalf("past HTTP-date: d=%v ok=%v, want negative wait reported", d, ok)
	}
}

func TestRetryAfterPastEpochReset(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	resp := respond(429, "", map[string]string{
		"x-rate-limit-reset": strconv.FormatInt(now.Add(-30*time.Second).Unix(), 10),
	})
	d, ok := retryAfter(resp, now)
	if !ok || d >= 0 {
		t.Fatalf("past epoch reset: d=%v ok=%v", d, ok)
	}
}

func TestRetryAfterMalformedIgnored(t *testing.T) {
	resp := respond(429, "", map[string]string{"Retry-After": "soon-ish"})
	if _, ok := retryAfter(resp, time.Now()); ok {
		t.Fatal("malformed Retry-After accepted")
	}
	resp = respond(429, "", map[string]string{"x-rate-limit-reset": "not-a-number"})
	if _, ok := retryAfter(resp, time.Now()); ok {
		t.Fatal("malformed reset header accepted")
	}
}

func TestDoClampsNegativeServerWait(t *testing.T) {
	// A past-epoch reset must not produce a negative sleep: the client
	// clamps to an immediate retry.
	var slept []time.Duration
	fd := &fakeDoer{fn: func(call int, _ *http.Request) (*http.Response, error) {
		if call == 1 {
			return respond(429, "", map[string]string{
				"x-rate-limit-reset": strconv.FormatInt(time.Now().Add(-time.Hour).Unix(), 10),
			}), nil
		}
		return respond(200, "ok", nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		return nil
	}))
	req, _ := http.NewRequest("GET", "https://x.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(slept) != 1 || slept[0] != 0 {
		t.Fatalf("slept %v, want a single zero wait", slept)
	}
}

func TestPaginateStuckTokenCycle(t *testing.T) {
	// A two-token cycle (a -> b -> a) repeats a token an earlier page
	// returned, not the one just before it: the third page's "a" stops
	// the drain with the items fetched so far.
	calls := 0
	got, err := Paginate(context.Background(), func(_ context.Context, tok string) (Page[int], error) {
		calls++
		if tok == "a" {
			return Page[int]{Items: []int{calls}, Next: "b"}, nil
		}
		return Page[int]{Items: []int{calls}, Next: "a"}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("err = %v, want the stuck-token error", err)
	}
	if calls != 3 || fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("cycle ran %d pages and kept %v, want 3 pages and [1 2 3]", calls, got)
	}
}
