// Package memnet provides an in-memory network fabric.
//
// The reproduction runs dozens to thousands of simulated HTTP services
// (one per Mastodon instance, plus the Twitter-like service, the index,
// the toxicity scorer, ...). Binding each to a real TCP port would exhaust
// ephemeral ports and make tests slow and flaky, so memnet implements a
// virtual internet: services Listen on a hostname, clients Dial hostnames,
// and connections are synchronous in-process pipes implementing net.Conn.
//
// The crawler stack is completely unaware of memnet: it talks standard
// net/http through a Transport whose DialContext points at the fabric. To
// run the same crawler against real servers (see cmd/fedisim), swap the
// dialer — nothing else changes.
//
// The fabric supports the failure modes the paper's crawl encountered:
// hosts can be taken down (11.58% of Mastodon timeline crawls failed with
// "instance down", §3.2), and a seeded per-host chaos schedule (SetChaos,
// the fabric's one fault injector) lets tests exercise the retry, backoff,
// breaker and hedging paths in httpkit.
package memnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"flock/internal/httpkit"
)

// ErrHostDown is returned by Dial for hosts marked down.
var ErrHostDown = errors.New("memnet: host is down")

// ErrNoSuchHost is returned by Dial for unregistered hostnames.
var ErrNoSuchHost = errors.New("memnet: no such host")

// ErrFabricClosed is returned after the fabric has been shut down.
var ErrFabricClosed = errors.New("memnet: fabric closed")

// Fabric is a virtual network connecting named hosts. It is safe for
// concurrent use.
type Fabric struct {
	mu     sync.Mutex
	hosts  map[string]*listener
	down   map[string]bool
	chaos  map[string]*chaosHost
	closed bool
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		hosts: make(map[string]*listener),
		down:  make(map[string]bool),
		chaos: make(map[string]*chaosHost),
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

// Listen registers host on the fabric and returns its listener. It fails
// if the host is already bound.
func (f *Fabric) Listen(host string) (net.Listener, error) {
	host = canonical(host)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrFabricClosed
	}
	if _, ok := f.hosts[host]; ok {
		return nil, fmt.Errorf("memnet: host %q already bound", host)
	}
	l := &listener{
		fabric: f,
		host:   host,
		conns:  make(chan net.Conn, 16),
		done:   make(chan struct{}),
	}
	f.hosts[host] = l
	return l, nil
}

// DialContext connects to host (any ":port" suffix is ignored), honouring
// ctx cancellation and injected faults. There is deliberately no
// context-free Dial: every dial is on behalf of some caller whose
// cancellation must propagate (the ctxflow analyzer in internal/lint
// keeps it that way).
func (f *Fabric) DialContext(ctx context.Context, host string) (net.Conn, error) {
	host = canonical(host)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFabricClosed
	}
	if f.down[host] {
		f.mu.Unlock()
		return nil, &net.OpError{Op: "dial", Net: "memnet", Err: ErrHostDown}
	}
	l, ok := f.hosts[host]
	ch := f.chaos[host]
	f.mu.Unlock()
	if !ok {
		return nil, &net.OpError{Op: "dial", Net: "memnet", Err: ErrNoSuchHost}
	}
	latency := time.Duration(0)
	var cc *chaosConn
	if ch != nil {
		var cerr error
		latency, cc, cerr = ch.plan()
		if cerr != nil {
			return nil, &net.OpError{Op: "dial", Net: "memnet", Err: cerr}
		}
	}
	if latency > 0 {
		select {
		case <-time.After(latency):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		if cc != nil {
			cc.Conn = client
			return cc, nil
		}
		return client, nil
	case <-l.done:
		return nil, &net.OpError{Op: "dial", Net: "memnet", Err: ErrHostDown}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// SetDown marks a host down (true) or back up (false). Dials to a down
// host fail immediately with ErrHostDown, matching a dead Mastodon
// instance. The listener itself is left registered so the host can come
// back.
func (f *Fabric) SetDown(host string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[canonical(host)] = down
}

// IsDown reports whether a host is currently marked down.
func (f *Fabric) IsDown(host string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down[canonical(host)]
}

// Hosts returns the registered hostnames, in no particular order.
func (f *Fabric) Hosts() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.hosts))
	for h := range f.hosts {
		out = append(out, h)
	}
	return out
}

// Close shuts the fabric down: all listeners stop accepting and future
// dials fail.
func (f *Fabric) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	for _, l := range f.hosts {
		l.closeLocked()
	}
	return nil
}

// unbind removes a closed listener's registration.
func (f *Fabric) unbind(host string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.hosts, host)
}

// listener implements net.Listener over the fabric.
type listener struct {
	fabric *Fabric
	host   string
	conns  chan net.Conn

	closeOnce sync.Once
	done      chan struct{}
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, &net.OpError{Op: "accept", Net: "memnet", Err: net.ErrClosed}
	}
}

func (l *listener) Close() error {
	l.closeOnce.Do(func() {
		close(l.done)
		l.fabric.unbind(l.host)
	})
	return nil
}

// closeLocked closes without unbinding (caller holds fabric lock).
func (l *listener) closeLocked() {
	l.closeOnce.Do(func() { close(l.done) })
}

func (l *listener) Addr() net.Addr { return addr(l.host) }

// addr is a trivial net.Addr for fabric endpoints.
type addr string

func (a addr) Network() string { return "memnet" }
func (a addr) String() string  { return string(a) }

// Transport returns an http.RoundTripper that routes every request over
// the fabric by request host. TLS is not simulated; https URLs are carried
// over plain pipes, which is transparent to the HTTP layer. Mastodon
// URLs in the wild are https, so the simulated services publish https
// URLs and this transport makes them work.
func (f *Fabric) Transport() http.RoundTripper {
	return &http.Transport{
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			return f.DialContext(ctx, address)
		},
		DialTLSContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			return f.DialContext(ctx, address)
		},
		// In-memory pipes are cheap but a pipe conn carries exactly one
		// HTTP exchange safely when the server side is serving many
		// hosts, so keep idle pooling modest.
		MaxIdleConnsPerHost: 4,
		IdleConnTimeout:     5 * time.Second,
	}
}

// Client returns an *http.Client routed over the fabric.
func (f *Fabric) Client() *http.Client {
	return httpkit.NewHTTPClient(f.Transport(), 30*time.Second)
}

// Serve starts an HTTP server for handler on host. It returns a stop
// function. Serving runs until stop is called or the fabric closes; ctx
// is the parent lifecycle for the graceful shutdown stop performs (the
// grace period survives ctx's own cancellation, so stopping after a
// cancelled run still drains cleanly).
func (f *Fabric) Serve(ctx context.Context, host string, handler http.Handler) (stop func(), err error) {
	l, err := f.Listen(host)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	go func() {
		// ErrClosed is the normal shutdown path.
		_ = srv.Serve(l)
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
			_ = l.Close()
		})
	}, nil
}
