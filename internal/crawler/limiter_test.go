package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/birdsite"
	"flock/internal/httpkit"
	"flock/internal/memnet"
)

// TestGateAdmitsNonProbesAtOnce: exchanges with a host that is not on
// probation are admitted at once, however many are in flight, and leave
// no per-host gate state.
func TestGateAdmitsNonProbesAtOnce(t *testing.T) {
	c := New(Config{})
	const n = 20
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var admitted sync.WaitGroup
	admitted.Add(n)
	all := make(chan struct{})
	go func() { admitted.Wait(); close(all) }()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := under(ctx, c, "any.host", func() (struct{}, error) {
				admitted.Done()
				select {
				case <-all:
					return struct{}{}, nil
				case <-ctx.Done():
					return struct{}{}, errors.New("exchange waited for another to finish")
				}
			})
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if len(c.gate.probing) != 0 {
		t.Fatalf("gate kept state for %d hosts", len(c.gate.probing))
	}
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

// TestIdleWaitsDoNotDeadlock: one worker slot, and host H, on
// probation, admits one exchange at a time as a probe. Task A holds H,
// fails once and backs off; task B, let in by A's backoff, waits for H.
// A must get a worker slot back to retry, so B's wait must not keep the
// one slot.
func TestIdleWaitsDoNotDeadlock(t *testing.T) {
	const host = "h.example"
	t.Run("probe gate", func(t *testing.T) {
		doer := &failFirst{}
		// Past the quarantine threshold, last failure older than the
		// probation age (1ns, so A's failure does not quarantine H again):
		// the gate admits one probe at a time.
		c := New(Config{Transport: Transport{HTTP: doer, Concurrency: 1, Breaker: httpkit.BreakerPolicy{Probation: time.Nanosecond}}})
		c.Health().ImportHealth([]httpkit.HostHealth{{
			Host:            host,
			QuarantineOpens: httpkit.DefaultBreaker.QuarantineAfter,
			LastFailure:     time.Now().Add(-time.Second),
		}})
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
	// Every exchange waits on the wire and some stall, so races hedge:
	// the task lends its slot to wait for its attempts, each attempt
	// takes one for its exchange and lends it again for the fabric's
	// waits. With one slot, every wait must still end.
	t.Run("hedged exchanges over latency", func(t *testing.T) {
		fab := memnet.NewFabric()
		defer fab.Close()
		if _, err := fab.Serve(context.Background(), host, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "{}")
		})); err != nil {
			t.Fatal(err)
		}
		fab.SetChaos(host, &memnet.ChaosSpec{Seed: 1, Latency: time.Millisecond, PSlowReq: 0.3, SlowReqDelay: 20 * time.Millisecond})
		c := New(Config{Transport: Transport{HTTP: fab.Client(), Concurrency: 1, Hedge: httpkit.HedgePolicy{Percentile: 0.5, MinSamples: 2, BudgetFrac: 1}}})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		g := httpkit.NewGroup(ctx, 1)
		for i := 0; i < 40; i++ {
			g.Go(func(ctx context.Context) error {
				_, err := under(ctx, c, host, func() (struct{}, error) {
					var out struct{}
					return out, c.client.GetJSON(ctx, fmt.Sprintf("https://%s/%d", host, i), &out)
				})
				return err
			})
		}
		if err := g.Wait(); err != nil {
			t.Fatalf("deadlocked until the deadline: %v", err)
		}
		if s := c.client.Stats(); s.HedgesFired == 0 {
			t.Fatalf("no hedge fired in %d requests", s.Requests)
		}
	})
}

// TestGateVerdictAllocFree: the gate reads a host's health verdict
// without allocating, for a host with a recorded failure and for a host
// never seen.
func TestGateVerdictAllocFree(t *testing.T) {
	c := New(Config{})
	c.Health().ReportFailure("failed.example", httpkit.KindDial)
	ctx := context.Background()
	fetch := func() (struct{}, error) { return struct{}{}, nil }
	for _, host := range []string{"failed.example", "never.example"} {
		if n := testing.AllocsPerRun(100, func() { _, _ = under(ctx, c, host, fetch) }); n != 0 {
			t.Errorf("%s: %v allocations per admitted exchange, want 0", host, n)
		}
	}
}

// TestHostGateProbeRules: a probe waits while the host's other probe
// is in flight, and a cancelled wait returns the context's error; an
// exchange that is not a probe never waits for a probe; and a second
// release of a probe frees nothing.
func TestHostGateProbeRules(t *testing.T) {
	const host = "h.example"
	// The gate has no adaptive window, so Transport.Adaptive at its zero
	// value, adaptation off, is the one configuration to check.
	t.Run("adaptation off", func(t *testing.T) {
		c := New(Config{})
		g := &c.gate
		probeAsync := func(ctx context.Context) chan error {
			done := make(chan error, 1)
			go func() {
				release, err := g.probe(ctx, host)
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
		finished := func(done chan error, what string) {
			t.Helper()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case <-time.After(time.Second):
				t.Fatalf("%s is still waiting", what)
			}
		}

		first, err := g.probe(context.Background(), host)
		if err != nil {
			t.Fatal(err)
		}
		second := probeAsync(context.Background())
		if !blocked(second) {
			t.Fatal("second probe admitted while the first holds")
		}
		// The registry has no verdict on host, so under admits the exchange
		// as no probe, and at once.
		plain := make(chan error, 1)
		go func() {
			_, err := under(context.Background(), c, host, func() (struct{}, error) { return struct{}{}, nil })
			plain <- err
		}()
		finished(plain, "exchange that is not a probe")
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := probeAsync(ctx)
		if !blocked(cancelled) {
			t.Fatal("third probe admitted while the first holds")
		}
		cancel()
		select {
		case err := <-cancelled:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled probe returned %v, want context.Canceled", err)
			}
		case <-time.After(time.Second):
			t.Fatal("cancel did not abort the waiting probe")
		}
		first()
		finished(second, "probe woken by a release")

		// The first probe's second release must not free the probe that now
		// holds the host.
		held, err := g.probe(context.Background(), host)
		if err != nil {
			t.Fatal(err)
		}
		first()
		next := probeAsync(context.Background())
		if !blocked(next) {
			t.Fatal("a second release freed another probe's hold")
		}
		held()
		finished(next, "probe woken by a release")
		if len(g.probing) != 0 {
			t.Fatalf("gate kept state for %d hosts after every release", len(g.probing))
		}
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
	// that runPhases files in the unit's record.
	var skip *quarantineSkip
	if !errors.Is(err, errQuarantineSkip) || !errors.As(err, &skip) || skip.host != domain || err.Error() != errQuarantineSkip.Error() {
		t.Fatalf("quarantined instance: err = %#v, want a skip of %s reading as errQuarantineSkip", err, domain)
	}
}
