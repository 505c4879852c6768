package crawler

import (
	"context"
	"errors"
	"sync"

	"flock/internal/httpkit"
)

// errQuarantineSkip marks a work unit the planner refused to dial
// because its host is quarantined. It lands in the per-phase gap maps
// (so unit-level accounting stays complete) and rolls up into
// CrawlReport.SkippedQuarantined.
var errQuarantineSkip = errors.New("host quarantined, skipped by planner")

// planner holds the single-slot probe gates underPlan serializes
// probation hosts through.
//
// Only fediverse instance hosts route through the planner. The core
// services (Twitter archive, instance index, Perspective) are the
// crawl's own backends: if they are down the crawl cannot proceed at
// all, so skipping them silently would convert an outage into a
// plausible-looking empty dataset.
type planner struct {
	mu    sync.Mutex
	gates map[string]chan struct{}
}

// gate returns host's single-slot probe gate, creating it on first use.
func (p *planner) gate(host string) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	g, ok := p.gates[host]
	if !ok {
		g = make(chan struct{}, 1)
		p.gates[host] = g
	}
	return g
}

// underPlan routes one exchange through the health registry's verdict
// for host, taken when the unit runs, so known-dead hosts (including
// ones learned by a previous run and restored from the checkpoint) cost
// no dials, retries or breaker probes. A quarantined host returns
// errQuarantineSkip without dialing (and counts the skip); a host past
// probation is admitted one exchange at a time through its probe gate
// (the limiter floor) until it proves itself again; a healthy host goes
// straight to the adaptive limiter.
func underPlan[T any](ctx context.Context, c *Crawler, host string, fetch func() (T, error)) (T, error) {
	var zero T
	switch h := c.health.Health(host); {
	case h.Quarantined:
		c.rep.noteSkip(host)
		return zero, errQuarantineSkip
	case h.Probation:
		g := c.plan.gate(host)
		select {
		case g <- struct{}{}:
		default:
			// Another unit is probing host: wait for its exchange
			// without a worker slot, as in the adaptive limiter.
			if err := httpkit.Idle(ctx, func() error {
				select {
				case g <- struct{}{}:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}); err != nil {
				return zero, err
			}
		}
		defer func() { <-g }()
	}
	return underLimit(ctx, c, host, fetch)
}
