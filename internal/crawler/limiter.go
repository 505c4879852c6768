// Adaptive per-host concurrency for the crawl fan-out.
//
// A single global Concurrency bound treats mastodon.social and a
// struggling single-user instance identically: either the big host is
// under-used or the small one is flattened. The AIMD controller here
// gives every host its own window, stepped by the outcome stream the
// HealthRegistry already classifies — additive increase while a host
// answers 2xx, multiplicative decrease on 429/5xx/breaker-open — the
// same control law TCP uses to share a bottleneck fairly. Fan-out
// phases acquire a slot for the target host before each exchange; the
// global Group bound still caps the work units running at once, and a
// unit waiting here for its host lends its Group slot to another unit
// (httpkit.Idle).
package crawler

import (
	"context"
	"math"
	"sync"
	"time"

	"flock/internal/httpkit"
	"flock/internal/vclock"
)

// Limiter bounds in-flight requests per target host. Acquire blocks
// until the host has a free slot (or ctx is done) and returns the
// release for that slot.
type Limiter interface {
	Acquire(ctx context.Context, host string) (release func(), err error)
	// Limits reports the current per-host concurrency windows, for
	// observability; nil when the limiter does not adapt.
	Limits() map[string]int
}

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

// nopLimiter is the non-adaptive limiter: every acquire succeeds
// immediately, leaving the global Group bound in charge.
type nopLimiter struct{}

func (nopLimiter) Acquire(ctx context.Context, host string) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return func() {}, nil
}

func (nopLimiter) Limits() map[string]int { return nil }

// hostWindow is one host's live AIMD state.
type hostWindow struct {
	limit       float64 // current window (fractional between steps)
	inflight    int
	lastBackoff time.Time
	wake        chan struct{} // closed+replaced on any slot/window change
}

// broadcast wakes every Acquire waiting on this host.
func (w *hostWindow) broadcast() {
	close(w.wake)
	w.wake = make(chan struct{})
}

// aimdLimiter implements Limiter with per-host AIMD windows stepped by
// the HealthRegistry outcome stream.
type aimdLimiter struct {
	bound int // the largest window: the global bound, at least minPerHost
	now   vclock.NowFunc

	mu    sync.Mutex
	hosts map[string]*hostWindow
}

// NewAdaptiveLimiter builds an AIMD limiter and subscribes it to the
// registry's outcome stream. globalBound is every host's initial and
// largest window; now may be nil (vclock.Wall).
func NewAdaptiveLimiter(pol AdaptivePolicy, health *httpkit.HealthRegistry, globalBound int, now vclock.NowFunc) Limiter {
	if !pol.Enabled {
		return nopLimiter{}
	}
	if now == nil {
		now = vclock.Wall
	}
	l := &aimdLimiter{
		bound: max(globalBound, minPerHost),
		now:   now,
		hosts: make(map[string]*hostWindow),
	}
	health.Subscribe(l.observe)
	return l
}

func (l *aimdLimiter) window(host string) *hostWindow {
	w, ok := l.hosts[host]
	if !ok {
		w = &hostWindow{limit: float64(l.bound), wake: make(chan struct{})}
		l.hosts[host] = w
	}
	return w
}

// effective is the integer window a host currently grants.
func (l *aimdLimiter) effective(w *hostWindow) int {
	return min(max(int(math.Floor(w.limit)), minPerHost), l.bound)
}

func (l *aimdLimiter) Acquire(ctx context.Context, host string) (func(), error) {
	l.mu.Lock()
	for {
		if err := ctx.Err(); err != nil {
			l.mu.Unlock()
			return nil, err
		}
		w := l.window(host)
		if w.inflight < l.effective(w) {
			w.inflight++
			l.mu.Unlock()
			var once sync.Once
			return func() {
				once.Do(func() {
					l.mu.Lock()
					w.inflight--
					w.broadcast()
					l.mu.Unlock()
				})
			}, nil
		}
		wake := w.wake
		l.mu.Unlock()
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
		l.mu.Lock()
	}
}

func (l *aimdLimiter) Limits() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]int, len(l.hosts))
	for host, w := range l.hosts {
		out[host] = l.effective(w)
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
func (l *aimdLimiter) observe(host string, kind httpkit.ErrorKind, success bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := l.window(host)
	switch {
	case success:
		if w.limit < float64(l.bound) {
			step := aimdIncrease / math.Max(1, math.Floor(w.limit))
			w.limit = math.Min(float64(l.bound), w.limit+step)
			w.broadcast()
		}
	case backpressure(kind):
		now := l.now()
		if now.Sub(w.lastBackoff) >= aimdCooldown {
			w.lastBackoff = now
			w.limit = math.Max(minPerHost, w.limit*aimdDecrease)
		}
	}
}
