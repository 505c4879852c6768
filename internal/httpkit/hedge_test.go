package httpkit

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/randx"
)

func TestLatencyDigestSlidingQuantile(t *testing.T) {
	d := newLatencyDigest(4)
	if _, ok := d.quantile(0.5); ok {
		t.Fatal("empty digest returned a quantile")
	}
	for _, v := range []time.Duration{10, 20, 30, 40} {
		d.observe(v * time.Millisecond)
	}
	if q, _ := d.quantile(1.0); q != 40*time.Millisecond {
		t.Fatalf("p100 = %v, want 40ms", q)
	}
	if q, _ := d.quantile(0); q != 10*time.Millisecond {
		t.Fatalf("p0 = %v, want 10ms", q)
	}
	// The window slides: four more samples evict the first four.
	for _, v := range []time.Duration{1, 2, 3, 4} {
		d.observe(v * time.Millisecond)
	}
	if q, _ := d.quantile(1.0); q != 4*time.Millisecond {
		t.Fatalf("p100 after slide = %v, want 4ms", q)
	}
	if d.samples != 8 {
		t.Fatalf("samples = %d, want 8", d.samples)
	}
}

// sortedCopyQuantile is the digest's quantile as it was computed before
// the digest kept its window sorted: sort a copy of the window and take
// the nearest rank.
func sortedCopyQuantile(window []time.Duration, q float64) (time.Duration, bool) {
	n := len(window)
	if n == 0 {
		return 0, false
	}
	cp := make([]time.Duration, n)
	copy(cp, window)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(q * float64(n-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return cp[idx], true
}

// TestLatencyDigestMatchesSortedCopy: on seeded sequences three times
// longer than the window, with values that repeat and values that
// rarely do, every quantile the digest gives after each observation is
// the one a sorted copy of its window gives.
func TestLatencyDigestMatchesSortedCopy(t *testing.T) {
	qs := []float64{0, 0.05, 0.5, 0.9, 0.95, 0.99, 1}
	for _, size := range []int{1, 2, 7, digestWindow} {
		for seed := uint64(1); seed <= 6; seed++ {
			rng := randx.New(seed)
			spread := 10 // many repeats
			if seed%2 == 0 {
				spread = 1 << 30
			}
			d := newLatencyDigest(size)
			for i := 0; i < 3*size+rng.Intn(size+1); i++ {
				d.observe(time.Duration(rng.Intn(spread)))
				for _, q := range qs {
					got, gotOK := d.quantile(q)
					want, wantOK := sortedCopyQuantile(d.window, q)
					if got != want || gotOK != wantOK {
						t.Fatalf("size %d seed %d, after %d samples: quantile(%v) = %v, %v; sorted copy gives %v, %v", size, seed, i+1, q, got, gotOK, want, wantOK)
					}
				}
			}
			if !slices.IsSorted(d.sorted) || len(d.sorted) != len(d.window) {
				t.Fatalf("size %d seed %d: sorted copy %v of window %v", size, seed, d.sorted, d.window)
			}
		}
	}
}

// TestHedgeDigestUsesInjectedClock drives the latency digest from a
// virtual clock: observed latency is whatever the clock says, not wall
// time.
func TestHedgeDigestUsesInjectedClock(t *testing.T) {
	var now atomic.Int64 // virtual nanos
	c := New(
		WithHedge(HedgePolicy{Percentile: 0.5, MinSamples: 1}),
		WithClock(func() time.Time { return time.Unix(0, now.Load()) }),
		WithSleep(noSleep),
		WithDoer(&fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
			now.Add(int64(250 * time.Millisecond)) // virtual service time
			return respond(200, "ok", nil), nil
		}}),
	)
	req, _ := http.NewRequest("GET", "https://slow.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	c.mu.Lock()
	d := c.digests["slow.example"]
	c.mu.Unlock()
	if d == nil {
		t.Fatal("no latency digest for slow.example")
	}
	q, ok := d.quantile(0.5)
	if !ok || q != 250*time.Millisecond {
		t.Fatalf("virtual latency quantile = %v ok=%v, want 250ms", q, ok)
	}
}

// warmClient builds a hedging client over fn, with opts on top, and
// issues `warm` fast GET requests so the host's digest passes
// MinSamples.
func warmClient(t *testing.T, pol HedgePolicy, fn func(call int, req *http.Request) (*http.Response, error), opts ...Option) *Client {
	t.Helper()
	warmed := atomic.Bool{}
	c := New(append([]Option{
		WithHedge(pol),
		WithDoer(&fakeDoer{fn: func(call int, req *http.Request) (*http.Response, error) {
			if !warmed.Load() {
				return respond(200, "warm", nil), nil
			}
			return fn(call, req)
		}}),
	}, opts...)...)
	for i := 0; i < pol.MinSamples; i++ {
		req, _ := http.NewRequest("GET", "https://h.example/warm", nil)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	warmed.Store(true)
	return c
}

// TestHedgeWinsAgainstStuckPrimary: the primary attempt wedges until
// cancelled; the backup fires after the hedge delay and wins.
func TestHedgeWinsAgainstStuckPrimary(t *testing.T) {
	var stuck atomic.Int32
	pol := HedgePolicy{Percentile: 0.9, MinSamples: 4, BudgetFrac: 1.0, MinDelay: 5 * time.Millisecond}
	c := warmClient(t, pol, func(_ int, req *http.Request) (*http.Response, error) {
		// First arrival (the primary: the hedge is delayed 5ms) wedges
		// until the race cancels it.
		if stuck.CompareAndSwap(0, 1) {
			<-req.Context().Done()
			return nil, req.Context().Err()
		}
		return respond(200, "hedged", nil), nil
	})
	req, _ := http.NewRequest("GET", "https://h.example/slow", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s := c.Stats()
	if s.HedgesFired != 1 || s.HedgeWins != 1 {
		t.Fatalf("stats %+v, want 1 hedge fired and won", s)
	}
	if s.Retries != 0 {
		t.Fatalf("hedge win must not count as a retry: %+v", s)
	}
}

// TestHedgeBudgetExhausted: with a tiny budget the trigger fires but is
// denied, and the slow primary is simply awaited.
func TestHedgeBudgetExhausted(t *testing.T) {
	pol := HedgePolicy{Percentile: 0.9, MinSamples: 4, BudgetFrac: 0.01, MinDelay: time.Millisecond}
	c := warmClient(t, pol, func(_ int, _ *http.Request) (*http.Response, error) {
		time.Sleep(15 * time.Millisecond)
		return respond(200, "slow but fine", nil), nil
	})
	req, _ := http.NewRequest("GET", "https://h.example/slow", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s := c.Stats()
	if s.HedgesFired != 0 {
		t.Fatalf("budget 1%% after %d requests must deny the hedge: %+v", s.Requests, s)
	}
	if s.HedgesDenied == 0 {
		t.Fatalf("denied hedge not counted: %+v", s)
	}
}

// TestHedgeNeverExceedsBudget hammers a uniformly slow host and checks
// the 5%-of-requests invariant afterwards.
func TestHedgeNeverExceedsBudget(t *testing.T) {
	pol := HedgePolicy{Percentile: 0.5, MinSamples: 4, BudgetFrac: 0.05, MinDelay: time.Microsecond}
	c := warmClient(t, pol, func(_ int, _ *http.Request) (*http.Response, error) {
		time.Sleep(2 * time.Millisecond)
		return respond(200, "meh", nil), nil
	})
	for i := 0; i < 60; i++ {
		req, _ := http.NewRequest("GET", "https://h.example/meh", nil)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	s := c.Stats()
	if float64(s.HedgesFired) > pol.BudgetFrac*float64(s.Requests) {
		t.Fatalf("hedges %d exceed budget %.0f%% of %d requests", s.HedgesFired, pol.BudgetFrac*100, s.Requests)
	}
}

// TestHedgeOnlyIdempotent: POSTs are never hedged, no matter how slow.
func TestHedgeOnlyIdempotent(t *testing.T) {
	pol := HedgePolicy{Percentile: 0.5, MinSamples: 4, BudgetFrac: 1.0, MinDelay: time.Microsecond}
	c := warmClient(t, pol, func(_ int, _ *http.Request) (*http.Response, error) {
		time.Sleep(10 * time.Millisecond)
		return respond(200, "posted", nil), nil
	})
	req, _ := http.NewRequest("POST", "https://h.example/write", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s := c.Stats()
	if s.HedgesFired != 0 || s.HedgesDenied != 0 {
		t.Fatalf("POST entered the hedge path: %+v", s)
	}
}

// TestHedgeRaceFallsBackToPrimary: when neither attempt produces a 2xx
// the primary's outcome surfaces, keeping retry semantics deterministic.
func TestHedgeRaceFallsBackToPrimary(t *testing.T) {
	var first atomic.Int32
	c := New(
		WithDoer(&fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
			if first.CompareAndSwap(0, 1) {
				time.Sleep(10 * time.Millisecond)
				return respond(503, "primary down", nil), nil
			}
			return respond(404, "hedge misses", nil), nil
		}}),
		WithHedge(HedgePolicy{Percentile: 0.5, MinSamples: 1, BudgetFrac: 1.0}),
	)
	req, _ := http.NewRequest("GET", "https://h.example/broken", nil)
	resp, err := c.race(req, "h.example", 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("race surfaced status %d, want the primary's 503", resp.StatusCode)
	}
}

// TestHedgeSkipsNonClosedBreaker: an open breaker is already rationing
// the host; the hedge trigger must not spend budget or probe slots.
func TestHedgeSkipsNonClosedBreaker(t *testing.T) {
	health := NewHealthRegistry(BreakerPolicy{FailureThreshold: 1, Cooldown: time.Hour})
	health.ReportFailure("h.example", KindDial) // trips immediately
	if health.State("h.example") != BreakerOpen {
		t.Fatal("breaker not open after threshold-1 failure")
	}
	c := New(
		WithBreaker(health),
		WithHedge(HedgePolicy{Percentile: 0.5, MinSamples: 1, BudgetFrac: 1.0}),
	)
	c.mu.Lock()
	c.stats.Requests = 100 // plenty of budget
	c.mu.Unlock()
	if c.allowHedge("h.example") {
		t.Fatal("hedge allowed against an open breaker")
	}
	if s := c.Stats(); s.HedgesDenied != 1 || s.HedgesFired != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestStateDoesNotConsumeProbe: State is a read-only peek; Allow after
// cooldown still gets its half-open probe.
func TestStateDoesNotConsumeProbe(t *testing.T) {
	health := NewHealthRegistry(BreakerPolicy{FailureThreshold: 1, Cooldown: time.Nanosecond})
	health.ReportFailure("h.example", KindDial)
	for i := 0; i < 3; i++ {
		if st := health.State("h.example"); st != BreakerOpen {
			t.Fatalf("peek %d changed state to %v", i, st)
		}
	}
	time.Sleep(time.Millisecond) // past the cooldown: next Allow is the probe
	if err := health.Allow("h.example"); err != nil {
		t.Fatalf("half-open probe was consumed by State: %v", err)
	}
}

// TestZeroValueClientStillWorks: the zero value, which outside this
// package is the only Client literal that compiles, behaves like New().
func TestZeroValueClientStillWorks(t *testing.T) {
	c := &Client{doer: &fakeDoer{fn: func(_ int, _ *http.Request) (*http.Response, error) {
		return respond(200, "legacy", nil), nil
	}}}
	req, _ := http.NewRequest("GET", "https://h.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s := c.Stats(); s.Requests != 1 || s.HedgesFired != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestOptionsCompose(t *testing.T) {
	fd := &fakeDoer{fn: func(_ int, req *http.Request) (*http.Response, error) {
		if req.Header.Get("User-Agent") != "ua/1" {
			t.Errorf("headers not stamped: %v", req.Header)
		}
		return respond(200, "ok", nil), nil
	}}
	health := NewHealthRegistry(BreakerPolicy{})
	c := New(
		WithDoer(fd),
		WithRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}),
		WithBreaker(health),
		WithHedge(DefaultHedge),
		WithUserAgent("ua/1"),
		WithSleep(noSleep),
	)
	if c.health != health || c.retry.MaxAttempts != 2 || !c.hedge.enabled() {
		t.Fatalf("options not applied: %+v", c)
	}
	req, _ := http.NewRequest("GET", "https://h.example/", nil)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// guard against unused import when tests shrink
var _ = context.Background

// TestHedgeRaceLendsSlot: in a Group of 1, a hedge race lends its task's
// worker slot while it waits, and each attempt takes a slot of its own.
func TestHedgeRaceLendsSlot(t *testing.T) {
	// The Doer works a little, waits out its exchange through Idle, and
	// works again. Primaries outlast the hedge delay, so most races run
	// two attempts of one task at once. Outside their waits, attempts
	// never work at the same time, and their waits overlap.
	t.Run("attempts work one at a time", func(t *testing.T) {
		const tasks, exchange = 6, 10 * time.Millisecond
		var working, inflight, peak atomic.Int64
		section := func() {
			if n := working.Add(1); n > 1 {
				t.Errorf("%d attempts working outside their waits, bound 1", n)
			}
			time.Sleep(200 * time.Microsecond)
			working.Add(-1)
		}
		pol := HedgePolicy{Percentile: 0.5, MinSamples: 1, BudgetFrac: 1.0, MinDelay: 2 * time.Millisecond}
		c := warmClient(t, pol, func(_ int, req *http.Request) (*http.Response, error) {
			maxInto(&peak, inflight.Add(1))
			defer inflight.Add(-1)
			section()
			ctx := req.Context()
			if err := Idle(ctx, func() error { return SleepContext(ctx, exchange) }); err != nil {
				return nil, err
			}
			section()
			return respond(200, "ok", nil), nil
		})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g := NewGroup(ctx, 1)
		for i := 0; i < tasks; i++ {
			g.Go(func(ctx context.Context) error {
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "https://h.example/slow", nil)
				resp, err := c.Do(req)
				if err != nil {
					return err
				}
				return resp.Body.Close()
			})
		}
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.HedgesFired == 0 || peak.Load() < 2 {
			t.Fatalf("%d hedges fired, %d attempts in flight at peak; want hedges and overlapping waits", s.HedgesFired, peak.Load())
		}
	})

	// Task A runs its exchange inside a wait of its own, so it holds no
	// slot, while task B works on the one slot for three hedge delays:
	// A's primary waits for B. The trigger starts once the primary holds
	// the slot, and the exchange itself is instant, so no hedge fires.
	t.Run("trigger starts on the slot", func(t *testing.T) {
		const delay = 50 * time.Millisecond
		var bDone, waited atomic.Bool
		pol := HedgePolicy{Percentile: 0.5, MinSamples: 1, BudgetFrac: 1.0, MinDelay: delay}
		c := warmClient(t, pol, func(_ int, _ *http.Request) (*http.Response, error) {
			waited.Store(bDone.Load())
			return respond(200, "ok", nil), nil
		})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g := NewGroup(ctx, 1)
		lent, working := make(chan struct{}), make(chan struct{})
		g.Go(func(ctx context.Context) error {
			return Idle(ctx, func() error {
				close(lent)
				select {
				case <-working:
				case <-ctx.Done():
					return fmt.Errorf("B never took the lent slot: %w", ctx.Err())
				}
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "https://h.example/a", nil)
				resp, err := c.Do(req)
				if err != nil {
					return err
				}
				return resp.Body.Close()
			})
		})
		<-lent
		g.Go(func(context.Context) error {
			close(working)
			time.Sleep(3 * delay) // work on the slot
			bDone.Store(true)
			return nil
		})
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
		if !waited.Load() {
			t.Fatal("A's primary ran before B gave the slot back")
		}
		if s := c.Stats(); s.HedgesFired != 0 {
			t.Fatalf("%d hedges fired for an instant exchange whose primary waited for the slot", s.HedgesFired)
		}
	})
}
