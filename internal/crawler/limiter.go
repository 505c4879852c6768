// Per-host admission for the crawl's exchanges.
//
// Every exchange a work unit has with a host passes one gate, which
// does two things. It skips quarantined fediverse instances, as the
// paper's crawlers skipped dead instances (§3.2). And it lets a host on
// probation through one exchange at a time, as a probe, until the host
// proves itself again. Every other exchange is admitted at once: the
// global Group bound caps the work units running at once, and a probe
// waiting at the gate for its host lends its Group slot to another unit
// (httpkit.Idle).
package crawler

import (
	"context"
	"errors"
	"strings"
	"sync"

	"flock/internal/httpkit"
)

// errQuarantineSkip marks a work unit the gate refused to dial because
// its host is quarantined. It lands in the per-phase gap maps (so
// unit-level accounting stays complete) and rolls up into
// CrawlReport.SkippedQuarantined.
var errQuarantineSkip = errors.New("host quarantined, skipped by planner")

// quarantineSkip is the error under returns for a quarantined host: it
// reads as errQuarantineSkip, unwraps to it and names the host, which
// runPhases files in the unit's record.
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
	if host != c.twHost && host != c.toxHost {
		switch quarantined, probation := c.health.Verdict(host); {
		case quarantined:
			return zero, &quarantineSkip{host}
		case probation:
			release, err := c.gate.probe(ctx, host)
			if err != nil {
				return zero, err
			}
			defer release()
		}
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	return fetch()
}

// hostGate lets one probe at a time through to each host. Its zero
// value is ready to use.
type hostGate struct {
	mu      sync.Mutex
	probing map[string]chan struct{} // the host's probe in flight; closed when it ends
}

// probe admits one probe of host, waiting while another is in flight,
// and returns its release, which is safe to call twice.
func (g *hostGate) probe(ctx context.Context, host string) (func(), error) {
	for {
		g.mu.Lock()
		busy, ok := g.probing[host]
		if !ok {
			if g.probing == nil {
				g.probing = make(map[string]chan struct{})
			}
			done := make(chan struct{})
			g.probing[host] = done
			g.mu.Unlock()
			return func() {
				g.mu.Lock()
				defer g.mu.Unlock()
				if g.probing[host] == done {
					delete(g.probing, host)
					close(done)
				}
			}, nil
		}
		g.mu.Unlock()
		// The wait is for another unit's exchange, so it must not hold a
		// worker slot: that unit may need one to finish its retries.
		if err := httpkit.Idle(ctx, func() error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-busy:
				return nil
			}
		}); err != nil {
			return nil, err
		}
	}
}
