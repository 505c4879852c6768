package httpkit

import (
	"context"
	"time"

	"flock/internal/vclock"
)

// Option configures a Client built by New.
type Option func(*Client)

// New builds a Client from functional options. It is the only way to
// configure a Client: the fields are unexported, so every crawler,
// service and test assembles its client here where defaults stay in one
// place.
func New(opts ...Option) *Client {
	c := &Client{}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// WithDoer sets the underlying transport (defaults to
// http.DefaultClient when unset).
func WithDoer(d Doer) Option { return func(c *Client) { c.doer = d } }

// WithRetry sets the retry policy.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p } }

// WithBreaker routes every request through the registry's per-host
// circuit breakers.
func WithBreaker(r *HealthRegistry) Option { return func(c *Client) { c.health = r } }

// WithHedge enables tail-latency hedging with the given policy.
func WithHedge(p HedgePolicy) Option { return func(c *Client) { c.hedge = p } }

// WithClock sets the time base for latency digests and Retry-After
// arithmetic (defaults to vclock.Wall).
func WithClock(now vclock.NowFunc) Option { return func(c *Client) { c.clock = now } }

// WithUserAgent sets the User-Agent header stamped on every request.
func WithUserAgent(ua string) Option { return func(c *Client) { c.userAgent = ua } }

// WithSleep overrides the wait function used for backoff and hedge
// timers (tests substitute an instant or virtual-time sleeper).
func WithSleep(sleep func(context.Context, time.Duration) error) Option {
	return func(c *Client) { c.sleepFn = sleep }
}
