// Per-host admission for the crawl's exchanges.
//
// Every exchange a work unit has with a host passes one gate, which
// does three things. It skips quarantined fediverse instances, as the
// paper's crawlers skipped dead instances (§3.2). It lets a host on
// probation through one exchange at a time until the host proves
// itself again. And with AdaptivePolicy on, it holds each host to its
// own AIMD window.
//
// A single global Concurrency bound treats mastodon.social and a
// struggling single-user instance identically: either the big host is
// under-used or the small one is flattened. The AIMD controller here
// gives every host its own window, stepped by the outcome stream the
// HealthRegistry already classifies — additive increase while a host
// answers 2xx, multiplicative decrease on 429/5xx/breaker-open — the
// same control law TCP uses to share a bottleneck fairly. The global
// Group bound still caps the work units running at once, and a unit
// waiting at the gate for its host lends its Group slot to another unit
// (httpkit.Idle).
package crawler

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"time"

	"flock/internal/httpkit"
	"flock/internal/vclock"
)

// AdaptivePolicy turns the AIMD controller on. The zero value disables
// adaptation (phases run under the global bound only).
type AdaptivePolicy struct {
	// Enabled turns per-host adaptation on.
	Enabled bool
}

// The AIMD control law. A host's window starts at the crawl's global
// Concurrency bound (start optimistic, let backpressure carve hosts
// down) and stays between minPerHost and that bound.
const (
	// minPerHost floors the window so a backed-off host keeps probing.
	minPerHost = 1
	// aimdIncrease is the additive step credited per successful
	// exchange, spread over the current window: one extra slot per
	// window's worth of successes, TCP-style.
	aimdIncrease = 1.0
	// aimdDecrease is the multiplicative factor applied on backpressure.
	aimdDecrease = 0.5
	// aimdCooldown spaces multiplicative decreases so one burst of 429s
	// halves the window once, not once per response.
	aimdCooldown = 50 * time.Millisecond
)

// errQuarantineSkip marks a work unit the gate refused to dial because
// its host is quarantined. It lands in the per-phase gap maps (so
// unit-level accounting stays complete) and rolls up into
// CrawlReport.SkippedQuarantined.
var errQuarantineSkip = errors.New("host quarantined, skipped by planner")

// quarantineSkip is the error under returns for a quarantined host: it
// reads as errQuarantineSkip, unwraps to it and names the host, which
// runPhase files in the unit's record.
type quarantineSkip struct{ host string }

func (e *quarantineSkip) Error() string { return errQuarantineSkip.Error() }

func (e *quarantineSkip) Unwrap() error { return errQuarantineSkip }

// under runs fetch as one exchange with host, admitted by the crawl's
// host gate.
//
// For a fediverse instance it first reads the health registry's
// verdict, taken when the unit runs, so known-dead hosts (including
// ones learned by a previous run and restored from the checkpoint) cost
// no dials, retries or breaker probes. A quarantined host returns a
// *quarantineSkip without dialing; a host past probation is admitted one
// exchange at a time, as a probe, until it proves itself again.
//
// The crawl's own backends (the Twitter archive and Perspective) are
// never skipped or probed: if they are down the crawl cannot proceed at
// all, so skipping them silently would convert an outage into a
// plausible-looking empty dataset. The instance index, the third
// backend, is one fetch outside the gate.
func under[T any](ctx context.Context, c *Crawler, host string, fetch func() (T, error)) (T, error) {
	var zero T
	host = strings.ToLower(host)
	probe := false
	if host != c.twHost && host != c.toxHost {
		switch h := c.health.Health(host); {
		case h.Quarantined:
			return zero, &quarantineSkip{host}
		case h.Probation:
			probe = true
		}
	}
	release, err := c.gate.acquire(ctx, host, probe)
	if err != nil {
		return zero, err
	}
	defer release()
	return fetch()
}

// hostGate admits exchanges per host: one probe at a time, and with
// adaptation on, no more exchanges than the host's AIMD window, stepped
// by the HealthRegistry outcome stream.
type hostGate struct {
	adaptive bool
	bound    int // the largest window: the global bound, at least minPerHost
	now      vclock.NowFunc

	mu    sync.Mutex
	hosts map[string]*hostWindow
}

// hostWindow is one host's admission state.
type hostWindow struct {
	limit       float64 // AIMD window (fractional between steps)
	inflight    int     // exchanges admitted under the lock, not yet released
	probing     bool    // a probe is in flight
	lastBackoff time.Time
	wake        chan struct{} // made when an admission waits; closed on a release or window growth
}

// wakeAll wakes every admission waiting on this host.
func (w *hostWindow) wakeAll() {
	if w.wake != nil {
		close(w.wake)
		w.wake = nil
	}
}

// newHostGate builds the crawl's gate. With adaptation on it subscribes
// to the registry's outcome stream; globalBound is every host's initial
// and largest window.
func newHostGate(pol AdaptivePolicy, health *httpkit.HealthRegistry, globalBound int, now vclock.NowFunc) *hostGate {
	g := &hostGate{
		adaptive: pol.Enabled,
		bound:    max(globalBound, minPerHost),
		now:      now,
		hosts:    make(map[string]*hostWindow),
	}
	if pol.Enabled {
		health.Subscribe(g.observe)
	}
	return g
}

func (g *hostGate) window(host string) *hostWindow {
	w, ok := g.hosts[host]
	if !ok {
		w = &hostWindow{limit: float64(g.bound)}
		g.hosts[host] = w
	}
	return w
}

// effective is the integer window a host currently grants.
func (g *hostGate) effective(w *hostWindow) int {
	return min(max(int(math.Floor(w.limit)), minPerHost), g.bound)
}

// acquire admits one exchange with host and returns its release, which
// is safe to call twice. A probe waits while another probe on host is
// in flight; with adaptation on, every exchange waits while host's
// in-flight count has reached its window. With adaptation off, an
// exchange that is not a probe takes no lock and never waits.
func (g *hostGate) acquire(ctx context.Context, host string, probe bool) (func(), error) {
	if !g.adaptive && !probe {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return func() {}, nil
	}
	g.mu.Lock()
	for {
		if err := ctx.Err(); err != nil {
			g.mu.Unlock()
			return nil, err
		}
		w := g.window(host)
		if !(probe && w.probing) && !(g.adaptive && w.inflight >= g.effective(w)) {
			w.inflight++
			w.probing = w.probing || probe
			g.mu.Unlock()
			var once sync.Once
			return func() {
				once.Do(func() {
					g.mu.Lock()
					w.inflight--
					if probe {
						w.probing = false
					}
					w.wakeAll()
					g.mu.Unlock()
				})
			}, nil
		}
		if w.wake == nil {
			w.wake = make(chan struct{})
		}
		wake := w.wake
		g.mu.Unlock()
		// The wait is for another unit's exchange, so it must not hold a
		// worker slot: that unit may need one to finish its retries.
		if err := httpkit.Idle(ctx, func() error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-wake:
				return nil
			}
		}); err != nil {
			return nil, err
		}
		g.mu.Lock()
	}
}

// Limits reports the current per-host windows, for observability; nil
// when adaptation is off.
func (g *hostGate) Limits() map[string]int {
	if !g.adaptive {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int, len(g.hosts))
	for host, w := range g.hosts {
		out[host] = g.effective(w)
	}
	return out
}

// backpressure reports whether an outcome kind should shrink a window.
// Only load signals count: 429 (host pacing us), 5xx (host buckling),
// breaker-open (we are rationing it ourselves). Dial/timeout/conn
// failures are the breaker's business — shrinking the window on them
// would double-penalize flaky-but-unloaded hosts.
func backpressure(kind httpkit.ErrorKind) bool {
	switch kind {
	case httpkit.Kind429, httpkit.Kind5xx, httpkit.KindBreakerOpen:
		return true
	}
	return false
}

// observe is the HealthListener: AIMD steps per recorded outcome.
func (g *hostGate) observe(host string, kind httpkit.ErrorKind, success bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w := g.window(host)
	switch {
	case success:
		if w.limit < float64(g.bound) {
			step := aimdIncrease / math.Max(1, math.Floor(w.limit))
			w.limit = math.Min(float64(g.bound), w.limit+step)
			w.wakeAll()
		}
	case backpressure(kind):
		now := g.now()
		if now.Sub(w.lastBackoff) >= aimdCooldown {
			w.lastBackoff = now
			w.limit = math.Max(minPerHost, w.limit*aimdDecrease)
		}
	}
}
