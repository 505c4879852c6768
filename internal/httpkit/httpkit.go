// Package httpkit is the HTTP toolkit the flock crawlers are built on.
//
// The paper's data collection (§3) leans on two awkward realities of
// crawling social platforms: server-side rate limits (Twitter's v2 API
// returns 429 with x-rate-limit-reset in unix seconds; Mastodon returns
// 429 with Retry-After or an ISO 8601 X-RateLimit-Reset) and flaky
// instances (timeouts, transient 5xx, dead hosts). httpkit packages the
// standard responses to both — reactive backoff that honours server reset
// headers and capped exponential retry — behind a small Client, plus
// one pagination loop (Paginate) that drains cursor, max_id and offset
// endpoints alike and stops on a repeated cursor, and a concurrency
// group for fan-out crawls that bounds the running tasks, not the
// waiting ones. GetJSON and PostJSON share one body path: it reads each
// JSON body once into a reused buffer, a destination that implements
// SelfDecoder decodes itself from those bytes, and encoding/json
// decodes the rest.
package httpkit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"flock/internal/vclock"
)

// Doer is the subset of *http.Client the kit needs; tests substitute it.
type Doer interface {
	Do(*http.Request) (*http.Response, error)
}

// StatusError is returned for non-2xx responses that are not retried to
// success. Body holds up to 4 KiB of the response for diagnostics.
type StatusError struct {
	Code int
	URL  string
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("httpkit: %s returned status %d", e.URL, e.Code)
}

// IsStatus reports whether err is a StatusError with the given code.
func IsStatus(err error, code int) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == code
}

// RetryPolicy controls the retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	MaxAttempts int
	// BaseDelay is the first backoff step; each retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (also caps server-requested waits).
	MaxDelay time.Duration
}

// DefaultRetry is a sane crawl policy: 4 attempts, 250ms base, 30s cap.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 250 * time.Millisecond, MaxDelay: 30 * time.Second}

// delay computes the backoff before attempt i (1-based retry index).
func (p RetryPolicy) delay(i int) time.Duration {
	d := time.Duration(float64(p.BaseDelay) * math.Pow(2, float64(i-1)))
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// SleepContext sleeps for d or until ctx is done, whichever comes first.
func SleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Client wraps a Doer with retries, rate-limit awareness, per-host
// circuit breaking and tail-latency hedging.
//
// Construct clients with New and functional options. The fields are
// unexported, so outside this package only the zero value compiles; it
// behaves like New() (and the rawhttp analyzer in internal/lint flags
// it there all the same).
type Client struct {
	// doer performs the requests; nil means http.DefaultClient.
	doer Doer
	// retry is the retry policy; the zero value means DefaultRetry.
	retry RetryPolicy
	// userAgent, when non-empty, is sent as the User-Agent header.
	userAgent string
	// sleepFn is the wait function; nil means SleepContext.
	sleepFn func(context.Context, time.Duration) error
	// health, when non-nil, gates every request through the registry's
	// per-host circuit breaker and records each outcome's error kind.
	// Requests to a host with an open breaker fail fast with a
	// *HostError wrapping ErrCircuitOpen instead of burning the retry
	// budget against a dead host.
	health *HealthRegistry
	// hedge enables tail-latency hedging for idempotent GET/HEAD
	// requests (see HedgePolicy); the zero value disables it.
	hedge HedgePolicy
	// clock is the time base for latency digests and Retry-After
	// arithmetic; nil means vclock.Wall. Tests inject a hand-advanced
	// vclock.NowFunc so hedge percentiles replay deterministically.
	clock vclock.NowFunc

	// mu guards the counters and the per-host latency digests.
	mu      sync.Mutex
	stats   Stats
	digests map[string]*latencyDigest
}

// Stats reports counters accumulated by the client.
type Stats struct {
	Requests       int // requests attempted (including retries and hedges)
	Retries        int // retried attempts
	RateLimited    int // 429 responses observed
	ShortCircuits  int // requests refused by an open circuit breaker
	RetriesDropped int // retries refused because the body cannot be rewound
	HedgesFired    int // backup attempts launched for slow requests
	HedgeWins      int // hedged exchanges the backup attempt won
	HedgesDenied   int // hedge triggers refused by budget or breaker state
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Client) policy() RetryPolicy {
	if c.retry.MaxAttempts <= 0 {
		return DefaultRetry
	}
	return c.retry
}

// sleep waits d with the injected sleep function, or SleepContext.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.sleepFn != nil {
		return c.sleepFn(ctx, d)
	}
	return SleepContext(ctx, d)
}

// wait sleeps out a retry backoff before the next attempt on host. Inside
// a Group task the task's worker slot goes to another task meanwhile
// (see Idle). When host's breaker is open and still will be when the
// backoff ends, it does not sleep: the breaker refuses the retry either
// way.
func (c *Client) wait(ctx context.Context, host string, d time.Duration) error {
	if c.health.refusesFor(host, d) {
		return nil
	}
	return Idle(ctx, func() error { return c.sleep(ctx, d) })
}

func (c *Client) now() time.Time {
	if c.clock != nil {
		return c.clock()
	}
	return vclock.Wall()
}

// retryAfter extracts a server-requested wait from 429/503 responses:
// Retry-After (seconds or an HTTP date), else the rate-limit reset time,
// which Twitter sends as x-rate-limit-reset in unix seconds and Mastodon
// as X-RateLimit-Reset in ISO 8601 (RFC 3339). Either header is read in
// either form.
func retryAfter(resp *http.Response, now time.Time) (time.Duration, bool) {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second, true
		}
		if at, err := http.ParseTime(v); err == nil {
			return at.Sub(now), true
		}
	}
	for _, h := range []string{"x-rate-limit-reset", "X-RateLimit-Reset"} {
		if v := resp.Header.Get(h); v != "" {
			if epochSecs, err := strconv.ParseInt(v, 10, 64); err == nil {
				return time.Unix(epochSecs, 0).Sub(now), true
			}
			if at, err := time.Parse(time.RFC3339, v); err == nil {
				return at.Sub(now), true
			}
		}
	}
	return 0, false
}

// retryable reports whether a response status is worth retrying.
func retryable(code int) bool {
	switch code {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// attempt performs one wire exchange: breaker admission, the round
// trip, latency observation and health reporting. It returns the
// response whatever its status — retry and non-2xx handling stay in
// Do — and is the unit the hedging race duplicates.
func (c *Client) attempt(r *http.Request, host string) (*http.Response, error) {
	if c.health != nil {
		if err := c.health.Allow(host); err != nil {
			c.mu.Lock()
			c.stats.ShortCircuits++
			c.mu.Unlock()
			return nil, err
		}
	}
	c.mu.Lock()
	c.stats.Requests++
	c.mu.Unlock()
	doer := c.doer
	if doer == nil {
		doer = http.DefaultClient
	}
	start := c.now()
	resp, err := doer.Do(r)
	if err != nil {
		if r.Context().Err() != nil {
			// Cancellation (caller or a settled hedge race) is not a
			// host failure; don't feed it to the breaker.
			return nil, r.Context().Err()
		}
		c.health.ReportFailure(host, Classify(err, 0))
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		c.observeLatency(host, c.now().Sub(start))
		c.health.ReportSuccess(host)
		return resp, nil
	}
	c.health.ReportFailure(host, Classify(nil, resp.StatusCode))
	if resp.StatusCode == http.StatusTooManyRequests {
		c.mu.Lock()
		c.stats.RateLimited++
		c.mu.Unlock()
	}
	return resp, nil
}

// send routes one exchange through the hedging race when the request
// is hedgeable and the host's latency digest is warm, and straight to
// attempt otherwise.
func (c *Client) send(r *http.Request, host string) (*http.Response, error) {
	if c.hedgeable(r) {
		if delay, ok := c.hedgeDelay(host); ok {
			return c.race(r, host, delay)
		}
	}
	return c.attempt(r, host)
}

// Do performs req with retries, per-host circuit breaking and
// (when configured) tail-latency hedging. The caller owns the response
// body on success. Non-2xx terminal responses become *StatusError;
// requests refused by an open breaker return a *HostError wrapping
// ErrCircuitOpen. A retry backoff that the host's open breaker would
// outlast is not slept: the retry goes straight to its refusal.
//
// Body-bearing requests are only retried when req.GetBody can supply a
// fresh copy (http.NewRequest sets it for common in-memory readers); a
// consumed, unrewindable body would resend nothing, so the retry is
// refused instead.
//
// Do does not modify req. When req's User-Agent is not the client's,
// Do sends one copy of req stamped with it. Every attempt, retries and
// hedges included, shares that request's header map, which the Doer
// must only read.
func (c *Client) Do(req *http.Request) (*http.Response, error) {
	if ua := c.userAgent; ua != "" && !slices.Equal(req.Header["User-Agent"], []string{ua}) {
		req = req.Clone(req.Context())
		if req.Header == nil {
			req.Header = make(http.Header, 1)
		}
		req.Header.Set("User-Agent", ua)
	}
	policy := c.policy()
	host := strings.ToLower(req.URL.Hostname())
	rewindable := req.Body == nil || req.Body == http.NoBody || req.GetBody != nil
	var lastErr error
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			if !rewindable {
				// Attempt 1 consumed the body; without GetBody a
				// retry would send an empty payload. Surface the original
				// failure instead.
				c.mu.Lock()
				c.stats.RetriesDropped++
				c.mu.Unlock()
				return nil, fmt.Errorf("httpkit: %s %s: cannot retry consumed request body (no GetBody): %w", req.Method, req.URL, lastErr)
			}
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
		}
		r := req
		if attempt > 1 && req.GetBody != nil {
			body, err := req.GetBody()
			if err != nil {
				return nil, fmt.Errorf("httpkit: rewinding request body: %w", err)
			}
			r = req.WithContext(req.Context())
			r.Body = body
		}
		resp, err := c.send(r, host)
		if err != nil {
			if errors.Is(err, ErrCircuitOpen) {
				if lastErr != nil {
					// The breaker tripped mid-retry: the underlying failure
					// is more informative than the refusal.
					return nil, fmt.Errorf("%w (circuit opened for %s)", lastErr, host)
				}
				return nil, err
			}
			if req.Context().Err() != nil {
				return nil, req.Context().Err()
			}
			lastErr = err
			if attempt < policy.MaxAttempts {
				if werr := c.wait(req.Context(), host, policy.delay(attempt)); werr != nil {
					return nil, werr
				}
				continue
			}
			return nil, fmt.Errorf("httpkit: %s %s failed after %d attempts: %w", req.Method, req.URL, attempt, err)
		}
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return resp, nil
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if retryable(resp.StatusCode) && attempt < policy.MaxAttempts {
			d, ok := retryAfter(resp, c.now())
			if !ok {
				d = policy.delay(attempt)
			}
			if d < 0 {
				d = 0
			}
			if d > policy.MaxDelay {
				d = policy.MaxDelay
			}
			if werr := c.wait(req.Context(), host, d); werr != nil {
				return nil, werr
			}
			lastErr = &StatusError{Code: resp.StatusCode, URL: req.URL.String(), Body: string(body)}
			continue
		}
		return nil, &StatusError{Code: resp.StatusCode, URL: req.URL.String(), Body: string(body)}
	}
	if lastErr == nil {
		lastErr = errors.New("httpkit: retries exhausted")
	}
	return nil, lastErr
}

// SelfDecoder is a GetJSON or PostJSON destination that decodes itself
// from the bytes of a response body. DecodeJSON either sets the receiver
// to what a json.Decoder's first Decode of body into a zero value gives,
// with a nil error, and reports true, or leaves the receiver as it was
// and reports false. It must not keep body, which the client reuses.
type SelfDecoder interface {
	DecodeJSON(body []byte) bool
}

// bodies holds the buffers GetJSON and PostJSON read response bodies
// into.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPresize caps how far doJSON grows a body buffer from a response's
// Content-Length before reading, so a false length cannot make it
// allocate more than this ahead of the bytes.
const maxPresize = 8 << 20

// GetJSON fetches u and decodes the JSON response into out, which holds
// a zero value.
//
// It reads the body once, to its end or a read error, into a reused
// buffer. When out is a SelfDecoder that accepts the bytes, GetJSON
// returns nil, even when the read then failed: as with a json.Decoder
// reading the body, a value that is whole before the failure decodes.
// Otherwise a json.Decoder decodes the same bytes, followed by the same
// read error, into out. A value cut short by a read error thus fails
// with that error, wrapped.
func (c *Client) GetJSON(ctx context.Context, u string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, u, out)
}

// PostJSON posts body to u as application/json and decodes the JSON
// response into out, which holds a zero value, as GetJSON does. The
// request body rewinds, so Do retries the exchange as it retries a GET.
func (c *Client) PostJSON(ctx context.Context, u string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.doJSON(req, u, out)
}

// doJSON performs req, whose URL is u, with Do and decodes the body of
// its 2xx response into out: GetJSON's and PostJSON's one body path.
// req is its own, so it stamps the User-Agent there and Do sends req
// itself.
func (c *Client) doJSON(req *http.Request, u string, out any) error {
	if c.userAgent != "" {
		req.Header.Set("User-Agent", c.userAgent)
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := bodies.Get().(*bytes.Buffer)
	defer bodies.Put(buf)
	buf.Reset()
	if n := resp.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPresize)) + bytes.MinRead)
	}
	_, readErr := buf.ReadFrom(resp.Body)
	if d, ok := out.(SelfDecoder); ok && d.DecodeJSON(buf.Bytes()) {
		return nil
	}
	var body io.Reader = bytes.NewReader(buf.Bytes())
	if readErr != nil {
		body = io.MultiReader(body, failedRead{readErr})
	}
	if err := json.NewDecoder(body).Decode(out); err != nil {
		return fmt.Errorf("httpkit: decoding %s: %w", u, err)
	}
	return nil
}

// failedRead is a reader whose every Read fails with err.
type failedRead struct{ err error }

func (f failedRead) Read([]byte) (int, error) { return 0, f.err }

// NewHTTPClient builds the plain *http.Client that backs a Client's Doer.
// Raw http.Client construction is confined to httpkit (the rawhttp
// analyzer in internal/lint enforces this) so that every outbound request
// path in the codebase is assembled in one place and can be wrapped with
// retries and per-host circuit breaking.
func NewHTTPClient(rt http.RoundTripper, timeout time.Duration) *http.Client {
	return &http.Client{Transport: rt, Timeout: timeout}
}

// Page is one page of a paginated fetch: the decoded items plus the token
// for the next page ("" when exhausted).
type Page[T any] struct {
	Items []T
	Next  string
}

// Paginate drains a cursor-paginated endpoint: it calls fetch with the
// empty token, then with each page's Next, until a page's Next is
// empty, and returns all items in order. A token that an earlier page
// already returned would repeat pages without end, so Paginate stops
// there with an error; on that error, as on a failed fetch, it returns
// the items fetched so far.
func Paginate[T any](ctx context.Context, fetch func(ctx context.Context, token string) (Page[T], error)) ([]T, error) {
	var out []T
	seen := map[string]bool{}
	token := ""
	for {
		p, err := fetch(ctx, token)
		if err != nil {
			return out, err
		}
		out = append(out, p.Items...)
		if p.Next == "" {
			return out, nil
		}
		if seen[p.Next] {
			return out, fmt.Errorf("httpkit: pagination stuck on token %q", p.Next)
		}
		seen[p.Next] = true
		token = p.Next
	}
}

// Group runs tasks with bounded concurrency, collecting every task's
// error but letting the remaining tasks finish (a crawl wants maximal
// coverage, not fail-fast); Wait joins them.
//
// Tasks run on worker goroutines that each take the next task when one
// ends, so a phase of many short tasks does not start (and regrow the
// stack of) a goroutine per task. The bound counts worker slots, not
// tasks, under one rule: a goroutine that holds a slot waits only on its
// own CPU work; every other wait lends the slot. Each task gets a
// context carrying its slot, and every wait that needs no CPU goes
// through Idle, which lends the slot to another task for the wait: a
// retry backoff, the crawler's per-host gate, a hedge race's wait for
// its attempts, and the delays memnet injects on the wire. A goroutine
// that a task starts to work for it, such as a hedge attempt, takes a
// slot of its own (occupy). So at most n goroutines work outside their
// waits, the waits overlap with that work, and whatever a slot holder
// waits for is held by a goroutine that either runs or is itself waiting
// without a slot.
//
// Call Go only before Wait, and Wait once.
type Group struct {
	ctx     context.Context
	run     chan struct{}                    // worker slots: one per running task
	workers chan struct{}                    // one per worker goroutine started
	tasks   chan func(context.Context) error // hands a task to an idle worker
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []error
}

// tasksPerSlot caps the worker goroutines, and so the tasks that exist
// at once, at this multiple of the running bound: each worker holds one
// task, running or waiting, and a phase with far more work units than
// slots reuses them. As every wait lends its slot, the cap also bounds
// the exchanges waiting on the wire at once. On the chaos_300 benchmark
// (seed 99, 2 vCPUs, ten pairs of runs) 16 beat 8 in every pair:
// median run_s 1.053 → 0.940 s, cpu_s 0.485 → 0.462 s, the same
// coverage and requests within 0.2%.
const tasksPerSlot = 16

// NewGroup returns a Group running at most n tasks at once. Each task's
// context derives from ctx.
func NewGroup(ctx context.Context, n int) *Group {
	if n < 1 {
		n = 1
	}
	return &Group{
		ctx:     ctx,
		run:     make(chan struct{}, n),
		workers: make(chan struct{}, tasksPerSlot*n),
		tasks:   make(chan func(context.Context) error),
	}
}

// Go schedules fn on an idle worker, or on a new one while fewer than
// tasksPerSlot*n exist. It blocks while every worker holds a task, that
// is while tasksPerSlot*n tasks exist; the task itself starts once a
// worker slot is free.
func (g *Group) Go(fn func(ctx context.Context) error) {
	select {
	case g.tasks <- fn:
		return
	default:
	}
	select {
	case g.tasks <- fn:
	case g.workers <- struct{}{}:
		g.wg.Add(1)
		go g.work(fn)
	}
}

// work runs fn, then every task handed to it, until Wait closes tasks.
// Its tasks share one context and slot: they run one after another, and
// Idle gives the slot back before a task returns.
func (g *Group) work(fn func(ctx context.Context) error) {
	defer g.wg.Done()
	ctx := context.WithValue(g.ctx, slotKey{}, &slot{run: g.run})
	for ok := true; ok; fn, ok = <-g.tasks {
		g.run <- struct{}{}
		err := fn(ctx)
		<-g.run
		if err != nil {
			g.mu.Lock()
			g.errs = append(g.errs, err)
			g.mu.Unlock()
		}
	}
}

// Wait blocks until all scheduled tasks finish and their workers exit,
// and returns the collected errors joined (nil if none failed).
func (g *Group) Wait() error {
	close(g.tasks)
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return errors.Join(g.errs...)
}

// slotKey is the context key under which a Group task finds its slot.
type slotKey struct{}

// slot is one goroutine's claim on its Group's worker slots: a worker's,
// held by the task it runs, or one that occupy took.
type slot struct {
	run  chan struct{}
	idle bool // the slot is lent out; only the holding goroutine touches it
}

// Idle runs wait with the calling goroutine's worker slot lent to
// another task, then takes a slot back before returning. The slot comes
// back unconditionally, also when wait fails on cancellation: every slot
// is held by a goroutine that waits only on its own CPU work, so one
// always frees up, and the task still holds a slot when it returns to
// its Group.
//
// Call Idle around any wait that needs no CPU, from the goroutine that
// holds the slot in ctx: the task's own, or the one that took it with
// occupy. Without a slot in ctx (or inside another Idle), it just runs
// wait.
func Idle(ctx context.Context, wait func() error) error {
	s, _ := ctx.Value(slotKey{}).(*slot)
	if s == nil || s.idle {
		return wait()
	}
	s.idle = true
	<-s.run
	defer func() {
		s.run <- struct{}{}
		s.idle = false
	}()
	return wait()
}

// occupy takes a worker slot of its own for a goroutine that works for
// the Group task in ctx, such as a hedge attempt, and returns a context
// carrying that slot and the function that gives it back. The goroutine
// lends the slot through Idle as a task lends its own, and the task
// meanwhile lends its slot while it waits for the goroutine. It fails
// with ctx's error when ctx ends before a slot frees up. Without a Group
// task in ctx it takes nothing.
func occupy(ctx context.Context) (context.Context, func(), error) {
	s, _ := ctx.Value(slotKey{}).(*slot)
	if s == nil {
		return ctx, func() {}, nil
	}
	select {
	case s.run <- struct{}{}:
	case <-ctx.Done():
		return ctx, nil, ctx.Err()
	}
	return context.WithValue(ctx, slotKey{}, &slot{run: s.run}), func() { <-s.run }, nil
}
