package httpkit

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

// testRegistry returns a registry with a controllable clock.
func testRegistry(p BreakerPolicy) (*HealthRegistry, *time.Time) {
	r := NewHealthRegistry(p)
	now := time.Unix(1_700_000_000, 0)
	r.now = func() time.Time { return now }
	return r, &now
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	r, _ := testRegistry(BreakerPolicy{FailureThreshold: 3, Cooldown: time.Minute})
	for i := 0; i < 2; i++ {
		r.ReportFailure("dead.test", KindDial)
		if err := r.Allow("dead.test"); err != nil {
			t.Fatalf("breaker opened after %d failures", i+1)
		}
	}
	r.ReportFailure("dead.test", KindDial)
	err := r.Allow("dead.test")
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	var he *HostError
	if !errors.As(err, &he) || he.Host != "dead.test" {
		t.Fatalf("HostError missing host: %v", err)
	}
	if h := r.Health("dead.test"); h.State != BreakerOpen || h.Opens != 1 || h.ShortCircuits != 1 {
		t.Fatalf("health %+v", h)
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	r, now := testRegistry(BreakerPolicy{FailureThreshold: 2, Cooldown: 10 * time.Second})
	r.ReportFailure("flaky.test", Kind5xx)
	r.ReportFailure("flaky.test", Kind5xx)
	if err := r.Allow("flaky.test"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("breaker should be open")
	}
	*now = now.Add(11 * time.Second)
	// One probe admitted, concurrent requests still refused.
	if err := r.Allow("flaky.test"); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	if err := r.Allow("flaky.test"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second concurrent probe admitted")
	}
	r.ReportSuccess("flaky.test")
	if err := r.Allow("flaky.test"); err != nil {
		t.Fatalf("breaker not closed after probe success: %v", err)
	}
	if h := r.Health("flaky.test"); h.State != BreakerClosed {
		t.Fatalf("state %s", h.State)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	r, now := testRegistry(BreakerPolicy{FailureThreshold: 1, Cooldown: 5 * time.Second})
	r.ReportFailure("dead.test", KindTimeout)
	*now = now.Add(6 * time.Second)
	if err := r.Allow("dead.test"); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	r.ReportFailure("dead.test", KindTimeout)
	if err := r.Allow("dead.test"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("breaker not reopened after failed probe")
	}
	if h := r.Health("dead.test"); h.Opens != 2 {
		t.Fatalf("opens = %d, want 2", h.Opens)
	}
}

func TestBreakerQuarantine(t *testing.T) {
	r, now := testRegistry(BreakerPolicy{FailureThreshold: 1, Cooldown: time.Second, QuarantineAfter: 2})
	for i := 0; i < 2; i++ {
		r.ReportFailure("gone.test", KindDial)
		*now = now.Add(2 * time.Second)
		if err := r.Allow("gone.test"); err != nil {
			t.Fatalf("probe %d refused: %v", i, err)
		}
	}
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Host != "gone.test" || !snap[0].Quarantined {
		t.Fatalf("snapshot = %+v, want gone.test quarantined", snap)
	}
}

func TestRateLimitDoesNotTrip(t *testing.T) {
	r, _ := testRegistry(BreakerPolicy{FailureThreshold: 2})
	for i := 0; i < 10; i++ {
		r.ReportFailure("busy.test", Kind429)
	}
	if err := r.Allow("busy.test"); err != nil {
		t.Fatalf("429s tripped the breaker: %v", err)
	}
	// And a 429 resets a dial-failure streak: the host is demonstrably up.
	r.ReportFailure("busy.test", KindDial)
	r.ReportFailure("busy.test", Kind429)
	r.ReportFailure("busy.test", KindDial)
	if err := r.Allow("busy.test"); err != nil {
		t.Fatalf("streak not reset by 429: %v", err)
	}
	if h := r.Health("busy.test"); h.Counts[Kind429] != 11 || h.Counts[KindDial] != 2 {
		t.Fatalf("taxonomy %+v", h.Counts)
	}
}

func TestClassify(t *testing.T) {
	dialErr := &net.OpError{Op: "dial", Net: "memnet", Err: errors.New("down")}
	cases := []struct {
		err    error
		status int
		want   ErrorKind
	}{
		{dialErr, 0, KindDial},
		{context.DeadlineExceeded, 0, KindTimeout},
		{errors.New("read: connection reset"), 0, KindConn},
		{nil, 500, Kind5xx},
		{nil, 503, Kind5xx},
		{nil, 429, Kind429},
		{nil, 404, KindOther},
	}
	for _, tc := range cases {
		if got := Classify(tc.err, tc.status); got != tc.want {
			t.Fatalf("Classify(%v, %d) = %s, want %s", tc.err, tc.status, got, tc.want)
		}
	}
}

func TestClientShortCircuitsOpenHost(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("refused")}
	}}
	reg := NewHealthRegistry(BreakerPolicy{FailureThreshold: 3, Cooldown: time.Hour})
	c := New(
		WithDoer(fd),
		WithBreaker(reg),
		WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}),
		WithSleep(noSleep),
	)
	// Two requests x two attempts = 4 dial failures: breaker opens at 3.
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest("GET", "https://dead.example/x", nil)
		if _, err := c.Do(req); err == nil {
			t.Fatal("want error")
		}
	}
	attempts := fd.calls
	req, _ := http.NewRequest("GET", "https://dead.example/x", nil)
	_, err := c.Do(req)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want short circuit", err)
	}
	if fd.calls != attempts {
		t.Fatal("request reached the transport despite open breaker")
	}
	// The breaker opened mid-request-2 (its retry was refused) and then
	// short-circuited request 3 outright.
	if s := c.Stats(); s.ShortCircuits != 2 {
		t.Fatalf("stats %+v", s)
	}
	if h := reg.Health("dead.example"); h.State != BreakerOpen {
		t.Fatalf("health %+v", h)
	}
}

// TestRetrySkipsBackoffBeforeRefusal: a retry backoff that the host's
// open breaker outlasts is not slept, and the retry is refused as it
// would be after the sleep. Each sleep advances the registry's clock.
func TestRetrySkipsBackoffBeforeRefusal(t *testing.T) {
	dialErr := &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("refused")}
	dial := func(int, *http.Request) (*http.Response, error) { return nil, dialErr }
	unavailable := func(int, *http.Request) (*http.Response, error) { return respond(503, "down", nil), nil }
	const ms = time.Millisecond
	for _, tc := range []struct {
		name   string
		fn     func(int, *http.Request) (*http.Response, error)
		policy BreakerPolicy
		sleeps []time.Duration
		want   Stats
		opened bool // the error says the circuit opened
	}{
		// The second failure opens the breaker for 30 s, so the 100 ms
		// backoff would end with it still open.
		{"opens", dial, BreakerPolicy{FailureThreshold: 2}, []time.Duration{50 * ms}, Stats{Requests: 2, Retries: 2, ShortCircuits: 1}, true},
		// Still closed after the second failure.
		{"closed", dial, BreakerPolicy{FailureThreshold: 3}, []time.Duration{50 * ms, 100 * ms}, Stats{Requests: 3, Retries: 2}, false},
		// The cooldown ends before the backoff does, so the retry goes
		// out as the half-open probe.
		{"cooldown", dial, BreakerPolicy{FailureThreshold: 2, Cooldown: 80 * ms}, []time.Duration{50 * ms, 100 * ms}, Stats{Requests: 3, Retries: 2}, false},
		// A retryable status opens the breaker just the same.
		{"status", unavailable, BreakerPolicy{FailureThreshold: 1}, nil, Stats{Requests: 1, Retries: 1, ShortCircuits: 1}, true},
	} {
		reg, now := testRegistry(tc.policy)
		var sleeps []time.Duration
		c := New(
			WithDoer(&fakeDoer{fn: tc.fn}),
			WithBreaker(reg),
			WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * ms, MaxDelay: time.Second}),
			WithSleep(func(ctx context.Context, d time.Duration) error {
				sleeps = append(sleeps, d)
				*now = now.Add(d)
				return ctx.Err()
			}),
		)
		req, _ := http.NewRequest("GET", "https://dead.example/x", nil)
		_, err := c.Do(req)
		if err == nil {
			t.Fatalf("%s: want an error", tc.name)
		}
		if wraps := IsStatus(err, 503) || errors.Is(err, dialErr); !wraps {
			t.Errorf("%s: err = %v, want it to wrap the failure", tc.name, err)
		}
		if opened := strings.Contains(err.Error(), "circuit opened"); opened != tc.opened {
			t.Errorf("%s: err = %v, circuit opened = %v, want %v", tc.name, err, opened, tc.opened)
		}
		if !slices.Equal(sleeps, tc.sleeps) {
			t.Errorf("%s: slept %v, want %v", tc.name, sleeps, tc.sleeps)
		}
		if s := c.Stats(); s != tc.want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, s, tc.want)
		}
	}
}

func TestClientBreakerIsolatesHosts(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, req *http.Request) (*http.Response, error) {
		if req.URL.Hostname() == "dead.example" {
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("refused")}
		}
		return respond(200, "ok", nil), nil
	}}
	reg := NewHealthRegistry(BreakerPolicy{FailureThreshold: 2, Cooldown: time.Hour})
	c := New(WithDoer(fd), WithBreaker(reg), WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}), WithSleep(noSleep))
	req, _ := http.NewRequest("GET", "https://dead.example/", nil)
	if _, err := c.Do(req); err == nil {
		t.Fatal("want failure")
	}
	if err := reg.Allow("dead.example"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("dead host breaker not open")
	}
	req, _ = http.NewRequest("GET", "https://alive.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("healthy host affected by dead host's breaker: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := reg.Health("alive.example"); h.Successes != 1 || h.State != BreakerClosed {
		t.Fatalf("health %+v", h)
	}
}

func TestClientSuccessClosesBreakerAfterCooldown(t *testing.T) {
	down := true
	fd := &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
		if down {
			return nil, &net.OpError{Op: "dial", Net: "tcp", Err: errors.New("refused")}
		}
		return respond(200, "ok", nil), nil
	}}
	reg := NewHealthRegistry(BreakerPolicy{FailureThreshold: 1, Cooldown: 10 * time.Millisecond})
	c := New(WithDoer(fd), WithBreaker(reg), WithRetry(RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}), WithSleep(noSleep))
	req, _ := http.NewRequest("GET", "https://flap.example/", nil)
	if _, err := c.Do(req); err == nil {
		t.Fatal("want dial failure")
	}
	if _, err := c.Do(req); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want short circuit", err)
	}
	down = false
	time.Sleep(15 * time.Millisecond)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatalf("probe after cooldown failed: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if h := reg.Health("flap.example"); h.State != BreakerClosed {
		t.Fatalf("state %s after recovery", h.State)
	}
}

func TestDoRetriesBodyWithGetBody(t *testing.T) {
	var bodies []string
	fd := &fakeDoer{fn: func(call int, req *http.Request) (*http.Response, error) {
		b, _ := io.ReadAll(req.Body)
		bodies = append(bodies, string(b))
		if call == 1 {
			return respond(503, "", nil), nil
		}
		return respond(200, "ok", nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(noSleep))
	// http.NewRequest sets GetBody for *strings.Reader.
	req, _ := http.NewRequest("POST", "https://x.example/", strings.NewReader("payload"))
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(bodies) != 2 || bodies[0] != "payload" || bodies[1] != "payload" {
		t.Fatalf("bodies = %q, want payload twice", bodies)
	}
}

func TestDoRefusesRetryWithoutGetBody(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, req *http.Request) (*http.Response, error) {
		io.Copy(io.Discard, req.Body)
		return respond(503, "unavailable", nil), nil
	}}
	c := New(WithDoer(fd), WithSleep(noSleep))
	req, _ := http.NewRequest("POST", "https://x.example/", strings.NewReader("payload"))
	req.GetBody = nil // e.g. a streaming body that cannot be replayed
	_, err := c.Do(req)
	if err == nil {
		t.Fatal("want error")
	}
	if fd.calls != 1 {
		t.Fatalf("unrewindable body retried: %d calls", fd.calls)
	}
	if !IsStatus(err, 503) {
		t.Fatalf("original failure lost: %v", err)
	}
	if s := c.Stats(); s.RetriesDropped != 1 {
		t.Fatalf("stats %+v", s)
	}
}
