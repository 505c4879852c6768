package crawler

import (
	"context"
	"errors"
	"sync"

	"flock/internal/httpkit"
)

// errQuarantineSkip marks a work unit the planner refused to schedule
// because its host is quarantined. It lands in the per-phase gap maps
// (so unit-level accounting stays complete) and rolls up into
// CrawlReport.SkippedQuarantined.
var errQuarantineSkip = errors.New("host quarantined, skipped by planner")

// planDecision is the planner's verdict for one host.
type planDecision int

const (
	// planFetch: healthy host, schedule normally.
	planFetch planDecision = iota
	// planProbe: past probation — admit requests one at a time (the
	// limiter floor) until the host proves itself again.
	planProbe
	// planSkip: quarantined — do not dial; record the unit as skipped.
	planSkip
)

// planner consults the crawl's health registry up front, before work
// units are scheduled, so known-dead hosts (including ones learned by a
// previous run and restored from the checkpoint) are partitioned out of
// each phase instead of burning dials, retries and breaker probes.
//
// Only fediverse instance hosts route through the planner. The core
// services (Twitter archive, instance index, Perspective) are the
// crawl's own backends: if they are down the crawl cannot proceed at
// all, so skipping them silently would convert an outage into a
// plausible-looking empty dataset.
type planner struct {
	c     *Crawler
	mu    sync.Mutex
	gates map[string]chan struct{}
}

func newPlanner(c *Crawler) *planner {
	return &planner{c: c, gates: map[string]chan struct{}{}}
}

// decide maps host health to a scheduling verdict.
func (p *planner) decide(host string) planDecision {
	h := p.c.health.Health(host)
	switch {
	case h.Quarantined:
		return planSkip
	case h.Probation:
		return planProbe
	default:
		return planFetch
	}
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

// underPlan routes one exchange through the planner's verdict for host:
// planSkip returns errQuarantineSkip without dialing (and counts the
// skip), planProbe serializes the exchange through the host's
// single-slot gate, planFetch goes straight to the adaptive limiter.
func underPlan[T any](ctx context.Context, c *Crawler, host string, fetch func() (T, error)) (T, error) {
	var zero T
	switch c.plan.decide(host) {
	case planSkip:
		c.rep.noteSkip(host)
		return zero, errQuarantineSkip
	case planProbe:
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
