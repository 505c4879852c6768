package crawler

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/birdsite"
	"flock/internal/httpkit"
)

// fakeClock is a hand-advanced vclock.NowFunc for cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// newTestLimiter builds an adaptive host gate whose windows start at,
// and never exceed, globalBound.
func newTestLimiter(t *testing.T, globalBound int, clk *fakeClock) (*hostGate, *httpkit.HealthRegistry) {
	t.Helper()
	health := httpkit.NewHealthRegistry(httpkit.BreakerPolicy{})
	return newHostGate(AdaptivePolicy{Enabled: true}, health, globalBound, clk.now), health
}

func TestAdaptiveDisabledIsNop(t *testing.T) {
	g := newHostGate(AdaptivePolicy{}, nil, 8, nil)
	// With adaptation off an exchange that is not a probe is admitted at
	// once, however many are in flight, and leaves no per-host state.
	var releases []func()
	for i := 0; i < 20; i++ {
		release, err := g.acquire(context.Background(), "any.host", false)
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, release)
	}
	for _, release := range releases {
		release()
	}
	if len(g.hosts) != 0 {
		t.Fatalf("disabled gate kept state for %d hosts", len(g.hosts))
	}
	if g.Limits() != nil {
		t.Fatal("disabled gate reported limits")
	}
}

func TestAdaptiveBackpressureAndRecovery(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	lim, health := newTestLimiter(t, 8, clk)

	const host = "busy.example"
	if got := lim.Limits()[host]; got != 0 {
		t.Fatalf("untouched host already has a window: %d", got)
	}

	// A burst of 429s within one cooldown (50ms) halves the window once,
	// not once per response.
	health.ReportFailure(host, httpkit.Kind429)
	health.ReportFailure(host, httpkit.Kind429)
	health.ReportFailure(host, httpkit.Kind429)
	if got := lim.Limits()[host]; got != 4 {
		t.Fatalf("window after one burst = %d, want 8/2 = 4", got)
	}
	// Past the cooldown the next load signal halves again; breaker-open
	// refusals count as backpressure too.
	clk.advance(60 * time.Millisecond)
	health.ReportFailure(host, httpkit.Kind5xx)
	if got := lim.Limits()[host]; got != 2 {
		t.Fatalf("window after second backoff = %d, want 2", got)
	}
	clk.advance(60 * time.Millisecond)
	health.ReportFailure(host, httpkit.Kind429)
	clk.advance(60 * time.Millisecond)
	health.ReportFailure(host, httpkit.Kind429)
	if got := lim.Limits()[host]; got != 1 {
		t.Fatalf("window must floor at minPerHost: %d", got)
	}

	// Dial failures are the breaker's business, not load: no shrink —
	// and no growth either.
	clk.advance(60 * time.Millisecond)
	health.ReportFailure(host, httpkit.KindDial)
	if got := lim.Limits()[host]; got != 1 {
		t.Fatalf("dial failure moved the window to %d", got)
	}

	// Additive recovery: at limit 1 each success credits a full slot.
	health.ReportSuccess(host)
	if got := lim.Limits()[host]; got != 2 {
		t.Fatalf("window after recovery success = %d, want 2", got)
	}
	for i := 0; i < 100; i++ {
		health.ReportSuccess(host)
	}
	if got := lim.Limits()[host]; got != 8 {
		t.Fatalf("window must cap at the global bound: %d", got)
	}
}

func TestAdaptiveAcquireBlocksAtWindow(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	lim, health := newTestLimiter(t, 2, clk)

	const host = "narrow.example"
	r1, err := lim.acquire(context.Background(), host, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lim.acquire(context.Background(), host, false)
	if err != nil {
		t.Fatal(err)
	}
	// Third slot: blocked until a release.
	acquired := make(chan func(), 1)
	go func() {
		r, err := lim.acquire(context.Background(), host, false)
		if err != nil {
			t.Error(err)
		}
		acquired <- r
	}()
	select {
	case <-acquired:
		t.Fatal("third acquire did not block at window 2")
	case <-time.After(20 * time.Millisecond):
	}
	r1()
	r1() // double release is safe and must not free a second slot
	select {
	case r := <-acquired:
		r()
	case <-time.After(time.Second):
		t.Fatal("release did not wake the blocked acquire")
	}
	r2()

	// Other hosts are unaffected by this host's window.
	r3, err := lim.acquire(context.Background(), "other.example", false)
	if err != nil {
		t.Fatal(err)
	}
	r3()

	// A cancelled context aborts a blocked acquire.
	a, _ := lim.acquire(context.Background(), host, false)
	b, _ := lim.acquire(context.Background(), host, false)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := lim.acquire(ctx, host, false); err == nil {
		t.Fatal("acquire beyond the window with expiring ctx returned no error")
	}
	a()
	b()
	_ = health
}

// failFirst answers 503 to the first request it sees and 200 with an
// empty JSON object to every later one.
type failFirst struct{ calls atomic.Int64 }

func (f *failFirst) Do(*http.Request) (*http.Response, error) {
	code := http.StatusOK
	if f.calls.Add(1) == 1 {
		code = http.StatusServiceUnavailable
	}
	return &http.Response{StatusCode: code, Header: http.Header{}, Body: io.NopCloser(strings.NewReader("{}"))}, nil
}

// TestIdleWaitsDoNotDeadlock: one worker slot, and host H admits one
// exchange at a time, through an adaptive window of 1 or as a probe on
// probation. Task A holds H, fails once and backs off; task B, let in
// by A's backoff, waits for H. A must get a worker slot back to retry,
// so B's wait must not keep the one slot.
func TestIdleWaitsDoNotDeadlock(t *testing.T) {
	const host = "h.example"
	for _, tc := range []struct {
		name  string
		build func(Config) *Crawler
	}{
		{"adaptive window", func(cfg Config) *Crawler {
			// The window is at most Concurrency, 1.
			cfg.Adaptive = AdaptivePolicy{Enabled: true}
			return New(cfg)
		}},
		{"probe gate", func(cfg Config) *Crawler {
			// Past the quarantine threshold, last failure older than the
			// probation age (1ns, so A's failure does not quarantine H
			// again): the gate admits one probe at a time.
			cfg.Breaker = httpkit.BreakerPolicy{Probation: time.Nanosecond}
			c := New(cfg)
			c.Health().ImportHealth([]httpkit.HostHealth{{
				Host:            host,
				QuarantineOpens: httpkit.DefaultBreaker.QuarantineAfter,
				LastFailure:     time.Now().Add(-time.Second),
			}})
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doer := &failFirst{}
			c := tc.build(Config{Transport: Transport{HTTP: doer, Concurrency: 1}})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			g := httpkit.NewGroup(ctx, 1)
			for i := 0; i < 2; i++ {
				g.Go(func(ctx context.Context) error {
					_, err := under(ctx, c, host, func() (struct{}, error) {
						var out struct{}
						return out, c.client.GetJSON(ctx, "https://"+host+"/x", &out)
					})
					return err
				})
			}
			if err := g.Wait(); err != nil {
				t.Fatalf("deadlocked until the deadline: %v", err)
			}
			if n := doer.calls.Load(); n != 3 {
				t.Fatalf("%d requests, want 3 (A's failure and retry, B's exchange)", n)
			}
		})
	}
}

// TestHostGateProbeRules: a probe waits for the host's other probe, and
// with adaptation on for a slot in the host's window; an exchange that
// is not a probe never waits for a probe.
func TestHostGateProbeRules(t *testing.T) {
	const host = "h.example"
	acquireAsync := func(ctx context.Context, g *hostGate, probe bool) chan error {
		done := make(chan error, 1)
		go func() {
			release, err := g.acquire(ctx, host, probe)
			if err == nil {
				release()
			}
			done <- err
		}()
		return done
	}
	blocked := func(done chan error) bool {
		select {
		case <-done:
			return false
		case <-time.After(20 * time.Millisecond):
			return true
		}
	}

	t.Run("adaptation off", func(t *testing.T) {
		g := newHostGate(AdaptivePolicy{}, nil, 8, nil)
		first, err := g.acquire(context.Background(), host, true)
		if err != nil {
			t.Fatal(err)
		}
		second := acquireAsync(context.Background(), g, true)
		if !blocked(second) {
			t.Fatal("second probe admitted while the first holds")
		}
		plain, err := g.acquire(context.Background(), host, false)
		if err != nil {
			t.Fatal(err)
		}
		plain()
		first()
		select {
		case err := <-second:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Second):
			t.Fatal("release did not wake the waiting probe")
		}
		if g.Limits() != nil {
			t.Fatal("disabled gate reported limits")
		}
	})

	t.Run("adaptation on", func(t *testing.T) {
		g, _ := newTestLimiter(t, 2, &fakeClock{t: time.Unix(1_700_000_000, 0)})
		a, err := g.acquire(context.Background(), host, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g.acquire(context.Background(), host, false)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		probe := acquireAsync(ctx, g, true)
		if !blocked(probe) {
			t.Fatal("probe admitted past a full window of 2")
		}
		cancel()
		select {
		case err := <-probe:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled probe returned %v, want context.Canceled", err)
			}
		case <-time.After(time.Second):
			t.Fatal("cancel did not abort the waiting probe")
		}
		a()
		if blocked(acquireAsync(context.Background(), g, true)) {
			t.Fatal("probe not admitted into a freed slot")
		}
		b()
	})
}

// TestBackendNeverSkipped: the registry's quarantine verdict skips a
// fediverse instance without a dial, but never the crawl's own Twitter
// backend, whose outage must fail the crawl, not empty it.
func TestBackendNeverSkipped(t *testing.T) {
	const domain = "dead.example"
	c := New(Config{TwitterBase: "https://" + birdsite.Host})
	var imported []httpkit.HostHealth
	for _, h := range []string{birdsite.Host, domain} {
		imported = append(imported, httpkit.HostHealth{
			Host:            h,
			QuarantineOpens: httpkit.DefaultBreaker.QuarantineAfter,
			LastFailure:     time.Now(),
		})
	}
	c.Health().ImportHealth(imported)
	for _, h := range []string{birdsite.Host, domain} {
		if !c.Health().Health(h).Quarantined {
			t.Fatalf("%s not quarantined after import", h)
		}
	}

	ctx := context.Background()
	calls := 0
	fetch := func() (int, error) { calls++; return 1, nil }
	if v, err := under(ctx, c, birdsite.Host, fetch); err != nil || v != 1 || calls != 1 {
		t.Fatalf("backend: under = %d, %v after %d fetches; want 1, nil after 1", v, err, calls)
	}
	_, err := under(ctx, c, strings.ToUpper(domain), fetch)
	if calls != 1 {
		t.Fatalf("quarantined instance was fetched (%d fetches)", calls)
	}
	// The skip reads and matches as errQuarantineSkip, and names the host
	// that runPhase files in the unit's record.
	var skip *quarantineSkip
	if !errors.Is(err, errQuarantineSkip) || !errors.As(err, &skip) || skip.host != domain || err.Error() != errQuarantineSkip.Error() {
		t.Fatalf("quarantined instance: err = %#v, want a skip of %s reading as errQuarantineSkip", err, domain)
	}
}
