// Tail-latency hedging ("The Tail at Scale", Dean & Barroso, CACM 2013).
//
// The §3 crawl is dominated by tail latency: one throttled Mastodon
// instance answering at its rate limit stalls a whole fan-out phase
// while healthy hosts sit idle. Waiting out the full client timeout is
// the worst response — the standard cure is a hedged request: once an
// idempotent request has been in flight longer than a high percentile
// of the host's recent latency, fire one backup attempt and take
// whichever answer arrives first. The expected extra load is tiny (only
// the slowest few percent of requests hedge, and a global budget caps
// even that), but the tail collapses to roughly the percentile that
// triggers the hedge.
//
// The per-host latency distribution is tracked in a sliding-window
// digest fed by successful exchanges, read through the client's
// vclock.NowFunc so replayed virtual-time runs observe virtual
// latencies.
package httpkit

import (
	"context"
	"io"
	"net/http"
	"slices"
	"time"
)

// HedgePolicy tunes tail-latency hedging. The zero value disables
// hedging; enable it with a Percentile in (0, 1).
type HedgePolicy struct {
	// Percentile of the host's observed latency after which a backup
	// attempt fires (e.g. 0.95: hedge once the request is slower than
	// 95% of recent ones). <= 0 disables hedging entirely.
	Percentile float64
	// MinSamples is how many latency observations a host needs before
	// hedging activates for it (default 8). Cold hosts never hedge.
	MinSamples int
	// BudgetFrac caps hedges at this fraction of all attempted requests
	// (default 0.05). The budget is global across hosts: a pathological
	// latency distribution cannot double the crawl's request volume.
	BudgetFrac float64
	// MinDelay floors the hedge trigger so a uniformly fast host cannot
	// spend the budget on no-win micro-hedges (default 1ms).
	MinDelay time.Duration
}

// enabled reports whether the policy turns hedging on.
func (p HedgePolicy) enabled() bool { return p.Percentile > 0 }

// DefaultHedge is a crawl-appropriate hedging policy: back up requests
// beyond the host's p95, spending at most 5% extra requests.
var DefaultHedge = HedgePolicy{Percentile: 0.95, MinSamples: 8, BudgetFrac: 0.05, MinDelay: time.Millisecond}

func (p HedgePolicy) withDefaults() HedgePolicy {
	if p.MinSamples <= 0 {
		p.MinSamples = DefaultHedge.MinSamples
	}
	if p.BudgetFrac <= 0 {
		p.BudgetFrac = DefaultHedge.BudgetFrac
	}
	if p.MinDelay <= 0 {
		p.MinDelay = DefaultHedge.MinDelay
	}
	return p
}

// digestWindow is the per-host sliding-window size of the latency
// digest, in samples.
const digestWindow = 128

// latencyDigest is a fixed-size sliding window of latency samples for
// one host, kept twice: in arrival order, to know which sample leaves,
// and sorted, so a quantile is one index. The window is small
// (digestWindow), so this is cheaper than a streaming sketch and
// exactly reproducible.
type latencyDigest struct {
	window  []time.Duration // ring, in arrival order
	sorted  []time.Duration // the window's samples, ascending
	next    int             // ring cursor
	samples int             // total observed (may exceed len(window))
}

func newLatencyDigest(size int) *latencyDigest {
	return &latencyDigest{window: make([]time.Duration, 0, size), sorted: make([]time.Duration, 0, size)}
}

func (d *latencyDigest) observe(v time.Duration) {
	if len(d.window) < cap(d.window) {
		d.window = append(d.window, v)
	} else {
		old := d.window[d.next]
		d.window[d.next] = v
		d.next = (d.next + 1) % len(d.window)
		i, _ := slices.BinarySearch(d.sorted, old)
		d.sorted = slices.Delete(d.sorted, i, i+1)
	}
	i, _ := slices.BinarySearch(d.sorted, v)
	d.sorted = slices.Insert(d.sorted, i, v)
	d.samples++
}

// quantile returns the q-quantile (nearest rank) of the window.
// ok is false while the window is empty.
func (d *latencyDigest) quantile(q float64) (time.Duration, bool) {
	n := len(d.sorted)
	if n == 0 {
		return 0, false
	}
	idx := min(max(int(q*float64(n-1)), 0), n-1)
	return d.sorted[idx], true
}

// observeLatency records a successful exchange's duration for host.
func (c *Client) observeLatency(host string, v time.Duration) {
	if !c.hedge.enabled() {
		return
	}
	c.mu.Lock()
	if c.digests == nil {
		c.digests = make(map[string]*latencyDigest)
	}
	d := c.digests[host]
	if d == nil {
		d = newLatencyDigest(digestWindow)
		c.digests[host] = d
	}
	d.observe(v)
	c.mu.Unlock()
}

// hedgeDelay computes the trigger delay for a request to host, or
// ok=false when the host is still cold (fewer than MinSamples
// observations).
func (c *Client) hedgeDelay(host string) (time.Duration, bool) {
	pol := c.hedge.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.digests[host]
	if d == nil || d.samples < pol.MinSamples {
		return 0, false
	}
	delay, ok := d.quantile(pol.Percentile)
	if !ok {
		return 0, false
	}
	if delay < pol.MinDelay {
		delay = pol.MinDelay
	}
	return delay, true
}

// hedgeable reports whether a request may be hedged at all: hedging
// must be on, and the request must be an idempotent, bodyless read.
// POSTs are never hedged — a duplicate write is not a latency
// optimization, it is a correctness bug.
func (c *Client) hedgeable(r *http.Request) bool {
	if !c.hedge.enabled() {
		return false
	}
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return false
	}
	return r.Body == nil || r.Body == http.NoBody
}

// allowHedge consumes one unit of the global hedge budget, refusing
// when the budget is exhausted or the host's breaker is not closed (an
// open or half-open breaker is already rationing requests; a hedge
// would either be refused anyway or steal the half-open probe slot).
func (c *Client) allowHedge(host string) bool {
	if c.health != nil && c.health.State(host) != BreakerClosed {
		c.mu.Lock()
		c.stats.HedgesDenied++
		c.mu.Unlock()
		return false
	}
	pol := c.hedge.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	if float64(c.stats.HedgesFired+1) > pol.BudgetFrac*float64(c.stats.Requests) {
		c.stats.HedgesDenied++
		return false
	}
	c.stats.HedgesFired++
	return true
}

// cancelBody releases a hedged sub-request's context when its winning
// (or fallback) response body is closed, so neither context nor
// connection outlives the read.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// raceResult is one sub-attempt's outcome inside a hedged exchange.
type raceResult struct {
	resp  *http.Response
	err   error
	hedge bool
}

// discard releases a non-winning result: closing the body cancels the
// sub-request context via cancelBody.
func (r raceResult) discard() {
	if r.resp != nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(r.resp.Body, 4096))
		r.resp.Body.Close()
	}
}

// race performs one hedged exchange: the primary attempt starts
// immediately; if it is still in flight delay after it took a worker
// slot, one backup fires (budget and breaker permitting) and the first
// 2xx wins. The loser is cancelled. When neither attempt produces a 2xx,
// the primary's result is returned so the caller's retry/backoff logic
// sees a deterministic outcome.
//
// Each attempt runs its exchange on a worker slot of its own (occupy),
// and the race lends the task's slot while it waits for them (Idle). So
// inside a Group the attempts wait for a slot, and the hedge trigger
// starts only once the primary holds one: a hedge times the exchange,
// not the wait for a slot.
func (c *Client) race(req *http.Request, host string, delay time.Duration) (*http.Response, error) {
	parent := req.Context()
	results := make(chan raceResult, 2)
	var cancels [2]context.CancelFunc
	held := make(chan struct{}) // closed once the primary holds its slot
	launch := func(idx int, hedge bool) {
		ctx, cancel := context.WithCancel(parent)
		cancels[idx] = cancel
		go func() {
			var resp *http.Response
			ctx, release, err := occupy(ctx)
			if err == nil {
				if !hedge {
					close(held)
				}
				resp, err = c.attempt(req.WithContext(ctx), host)
				release()
			}
			if resp != nil {
				// The context must survive until the body is consumed.
				resp.Body = &cancelBody{ReadCloser: resp.Body, cancel: cancel}
			} else {
				cancel()
			}
			results <- raceResult{resp: resp, err: err, hedge: hedge}
		}()
	}
	launch(0, false)
	inflight := 1

	// The hedge trigger runs through c.sleep so tests that inject a
	// sleep (WithSleep) control it; cancelling timerCtx reaps the
	// goroutine once a result settles the race.
	timerCtx, timerCancel := context.WithCancel(parent)
	defer timerCancel()
	timer := make(chan struct{})
	go func() {
		select {
		case <-held:
		case <-timerCtx.Done():
			return
		}
		if c.sleep(timerCtx, delay) == nil {
			close(timer)
		}
	}()

	var resp *http.Response
	var primary, hedged *raceResult
	err := Idle(parent, func() error {
		for {
			select {
			case res := <-results:
				inflight--
				if res.err == nil && res.resp.StatusCode >= 200 && res.resp.StatusCode < 300 {
					// First success wins; cancel and drain the loser.
					if res.hedge {
						c.mu.Lock()
						c.stats.HedgeWins++
						c.mu.Unlock()
						cancels[0]()
					} else if cancels[1] != nil {
						cancels[1]()
					}
					if primary != nil {
						primary.discard()
					}
					if inflight > 0 {
						go func() { (<-results).discard() }()
					}
					resp = res.resp
					return nil
				}
				if res.hedge {
					hedged = &res
				} else {
					primary = &res
				}
				if inflight == 0 {
					// No winner: surface the primary outcome, drop the rest.
					if hedged != nil {
						hedged.discard()
					}
					resp = primary.resp
					return primary.err
				}
			case <-timer:
				timer = nil // fire at most once
				if c.allowHedge(host) {
					launch(1, true)
					inflight++
				}
			}
		}
	})
	return resp, err
}
