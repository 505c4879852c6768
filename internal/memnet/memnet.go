// Package memnet provides an in-memory network fabric.
//
// The reproduction runs dozens to thousands of simulated HTTP services
// (one per Mastodon instance, plus the Twitter-like service, the index,
// the toxicity scorer, ...). Binding each to a real TCP port would exhaust
// ephemeral ports and make tests slow and flaky, so memnet implements a
// virtual internet: services Serve a handler on a hostname, and the
// Fabric, an http.RoundTripper, hands each request to the handler of its
// host. No bytes are written: the handler gets a copy of the request as
// a server would parse it, and answers through the fabric's own
// http.ResponseWriter, which builds the caller's response as
// httptest.ResponseRecorder would. That writer supports no trailers and
// no Flush; no handler here uses either.
//
// The crawler stack is completely unaware of memnet: it talks standard
// net/http through a client whose Transport is the fabric. To run the
// same crawler against real servers (see cmd/fedisim), swap the
// transport — nothing else changes.
//
// The fabric supports the failure modes the paper's crawl encountered:
// hosts can be taken down (11.58% of Mastodon timeline crawls failed with
// "instance down", §3.2), and a seeded per-host chaos schedule (SetChaos,
// the one fault injector, which cmd/fedisim shares through Schedule) lets
// tests exercise the retry, backoff, breaker and hedging paths in httpkit.
//
// The fabric keeps httpkit's rule for worker slots: a goroutine that
// holds a slot waits only on its own CPU work; every other wait lends
// the slot. It sleeps every wait it injects through httpkit.Idle, so in
// a Group of n the exchanges of many tasks wait on the wire at once,
// while at most n handlers run.
package memnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"flock/internal/httpkit"
)

// ErrHostDown is the dial error of a request to a host marked down.
var ErrHostDown = errors.New("memnet: host is down")

// ErrNoSuchHost is the dial error of a request to an unbound hostname.
var ErrNoSuchHost = errors.New("memnet: no such host")

// ErrFabricClosed is returned after the fabric has been shut down.
var ErrFabricClosed = errors.New("memnet: fabric closed")

// Fabric is a virtual network connecting named hosts, and the
// http.RoundTripper that carries requests over it. It is safe for
// concurrent use.
type Fabric struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
	chaos    map[string]*Schedule
	closed   bool
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		handlers: make(map[string]http.Handler),
		down:     make(map[string]bool),
		chaos:    make(map[string]*Schedule),
	}
}

// canonical lowercases a host and strips any :port suffix; the fabric
// routes purely on hostname, like SNI.
func canonical(host string) string {
	host = strings.ToLower(host)
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host[i:], "]") {
		host = host[:i]
	}
	return host
}

// dialError wraps err the way a failed TCP dial surfaces, so httpkit
// classifies it as httpkit.KindDial.
func dialError(err error) error {
	return &net.OpError{Op: "dial", Net: "memnet", Err: err}
}

// SetDown marks a host down (true) or back up (false). Requests to a
// down host fail with ErrHostDown, matching a dead Mastodon instance.
// The handler stays bound so the host can come back.
func (f *Fabric) SetDown(host string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[canonical(host)] = down
}

// Hosts returns the bound hostnames, in no particular order.
func (f *Fabric) Hosts() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.handlers))
	for h := range f.handlers {
		out = append(out, h)
	}
	return out
}

// Close shuts the fabric down: every later request fails with
// ErrFabricClosed. It is safe to call more than once.
func (f *Fabric) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

// Serve binds handler to host and returns a stop function that unbinds
// it; stop is safe to call twice. It fails when the host is already
// bound or the fabric is closed. The context is not used: handlers run
// inside the caller's RoundTrip, so there is no server to shut down.
func (f *Fabric) Serve(_ context.Context, host string, handler http.Handler) (stop func(), err error) {
	host = canonical(host)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrFabricClosed
	}
	if _, ok := f.handlers[host]; ok {
		return nil, fmt.Errorf("memnet: host %q already bound", host)
	}
	f.handlers[host] = handler
	var once sync.Once
	return func() {
		once.Do(func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			delete(f.handlers, host)
		})
	}, nil
}

// Transport returns the fabric as an http.RoundTripper. TLS is not
// simulated: https URLs route like http ones. Mastodon URLs in the wild
// are https, so the simulated services publish https URLs and the
// fabric makes them work.
func (f *Fabric) Transport() http.RoundTripper { return f }

// Client returns an *http.Client routed over the fabric. It sets no
// timeout: every wait the fabric injects is finite and ends with the
// request's context. The fabric is not an *http.Transport, so a client
// timeout would cost a goroutine, a timer and a body wrapper per
// request.
func (f *Fabric) Client() *http.Client {
	return httpkit.NewHTTPClient(f, 0)
}

// RoundTrip hands req to the handler bound to its URL's host, after the
// host's chaos schedule has decided the attempt. A down or unbound host
// fails with a dial *net.OpError wrapping ErrHostDown or ErrNoSuchHost,
// as does a refusal by the schedule. Every wait — latency, stall,
// throttle — is slept on req's context, so cancelling it (a hedge's
// loser, an expired client timeout) ends the exchange. A wait needs no
// CPU, so it lends the worker slot of the Group task in that context
// (httpkit.Idle), and the handler runs once the caller holds a slot
// again. A handler panic becomes the exchange's error.
//
// The handler gets a copy of req with its own header map and answers
// through the fabric's writer (see exchange), which builds the
// response: one allocation for the exchange, plus the header copy and
// the reply's bytes. Apart from reading and closing its body, req is
// not modified.
func (f *Fabric) RoundTrip(req *http.Request) (*http.Response, error) {
	var payload []byte
	if req.Body != nil && req.Body != http.NoBody {
		var err error
		payload, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	host := canonical(req.URL.Host)
	f.mu.Lock()
	closed, down, h, sched := f.closed, f.down[host], f.handlers[host], f.chaos[host]
	f.mu.Unlock()
	switch {
	case closed:
		return nil, ErrFabricClosed
	case down:
		return nil, dialError(ErrHostDown)
	case h == nil:
		return nil, dialError(ErrNoSuchHost)
	}
	uri := req.URL.RequestURI()
	var d decision
	if sched != nil {
		d = sched.decide(req.Method, uri, payload)
		if d.err != nil {
			return nil, dialError(d.err)
		}
	}
	ctx := req.Context()
	if err := wait(ctx, d.delay+sched.throttle(len(payload))); err != nil {
		return nil, err
	}

	x := &exchange{in: *req}
	in := &x.in
	x.url = url.URL{Path: req.URL.Path, RawPath: req.URL.RawPath, RawQuery: req.URL.RawQuery}
	in.URL, in.RequestURI, in.RemoteAddr = &x.url, uri, "memnet"
	in.Header = req.Header.Clone()
	if in.Host == "" {
		in.Host = req.URL.Host
	}
	in.Body, in.ContentLength, in.GetBody = http.NoBody, 0, nil
	if len(payload) > 0 {
		x.payload.Reset(payload)
		in.Body, in.ContentLength = &x.payload, int64(len(payload))
	}
	if err := serve(h, x, in); err != nil {
		return nil, err
	}
	if err := wait(ctx, sched.throttle(x.body.Len())); err != nil {
		return nil, err
	}
	resp := x.response(req)
	if d.reset > 0 {
		resp.Body = &resetBody{ReadCloser: resp.Body, left: d.reset}
	}
	return resp, nil
}

// wait sleeps d on ctx through httpkit.Idle, so that a Group task
// waiting on the wire lends its worker slot meanwhile. A zero wait only
// checks ctx, as httpkit.SleepContext does, and lends nothing.
func wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	return httpkit.Idle(ctx, func() error { return httpkit.SleepContext(ctx, d) })
}

// serve runs the handler, turning a panic into an error the way a
// server that recovers it and drops the connection would.
func serve(h http.Handler, w http.ResponseWriter, r *http.Request) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("memnet: handler for %s panicked: %v", r.Host, p)
		}
	}()
	h.ServeHTTP(w, r)
	return nil
}

// exchange is one request's trip through the fabric: the request the
// handler sees, the http.ResponseWriter it answers through and the
// response that goes back, so that the caller's response body keeps
// the whole exchange alive until the caller drops it.
//
// As the writer it records what httptest.ResponseRecorder records for
// every handler here. The first Write sniffs a Content-Type unless one,
// or a Transfer-Encoding, is set, and implies a 200. The header map
// becomes the response's when the header is written; Header then hands
// out throwaway maps, so a header set late does not reach the caller
// (a map the handler kept from before still would). A code outside
// 100–999 panics. It supports no trailers and no Flush.
type exchange struct {
	in      http.Request
	url     url.URL
	payload payloadBody
	resp    http.Response // its Header and StatusCode are the writer's
	wrote   bool          // the header is written
	body    replyBody
}

// payloadBody is the handler's request body.
type payloadBody struct{ bytes.Reader }

func (*payloadBody) Close() error { return nil }

// replyBody is the response body: the bytes the handler wrote.
type replyBody struct{ bytes.Buffer }

func (*replyBody) Close() error { return nil }

// Header returns the reply's header map until the header is written,
// and a throwaway map after.
func (x *exchange) Header() http.Header {
	if x.wrote {
		return http.Header{}
	}
	if x.resp.Header == nil {
		x.resp.Header = http.Header{}
	}
	return x.resp.Header
}

func (x *exchange) WriteHeader(code int) {
	if x.wrote {
		return
	}
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	x.Header() // the response's header map is never nil
	x.resp.StatusCode, x.wrote = code, true
}

// writeHeader writes an implicit 200 before the first bytes of the
// body, b or else s, sniffing their Content-Type when the handler set
// none.
func (x *exchange) writeHeader(b []byte, s string) {
	if x.wrote {
		return
	}
	h := x.Header()
	if _, typed := h["Content-Type"]; !typed && h.Get("Transfer-Encoding") == "" {
		if b == nil {
			b = []byte(s[:min(len(s), 512)])
		}
		h.Set("Content-Type", http.DetectContentType(b))
	}
	x.WriteHeader(http.StatusOK)
}

func (x *exchange) Write(b []byte) (int, error) {
	x.writeHeader(b, "")
	return x.body.Write(b)
}

func (x *exchange) WriteString(s string) (int, error) {
	x.writeHeader(nil, s)
	return x.body.WriteString(s)
}

// response finishes the exchange as the reply to req: a handler that
// wrote nothing answered 200.
func (x *exchange) response(req *http.Request) *http.Response {
	x.WriteHeader(http.StatusOK)
	r := &x.resp
	r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.1", 1, 1
	r.Status = "200 OK"
	if r.StatusCode != http.StatusOK {
		r.Status = fmt.Sprintf("%03d %s", r.StatusCode, http.StatusText(r.StatusCode))
	}
	r.Body, r.ContentLength, r.Request = &x.body, int64(x.body.Len()), req
	return r
}

// resetBody delivers the first left bytes of a response body and then
// fails with ErrConnReset, as a connection reset mid-stream does.
type resetBody struct {
	io.ReadCloser
	left int64
}

func (b *resetBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, connReset()
	}
	if int64(len(p)) > b.left {
		p = p[:b.left]
	}
	n, err := b.ReadCloser.Read(p)
	b.left -= int64(n)
	if err == io.EOF {
		// A body shorter than the cut ends in the reset, not in EOF.
		b.left, err = 0, connReset()
	}
	return n, err
}

// connReset is the read error of a body cut by the schedule, built only
// when a read returns it.
func connReset() error {
	return &net.OpError{Op: "read", Net: "memnet", Err: ErrConnReset}
}
