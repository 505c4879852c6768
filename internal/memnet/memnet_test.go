package memnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/httpkit"
)

// okHandler answers every request with "ok".
var okHandler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok")
})

// get fetches url over the fabric's client and drains the body.
func get(f *Fabric, url string) error {
	return getCtx(context.Background(), f, url)
}

func getCtx(ctx context.Context, f *Fabric, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

func TestDialUnknownHost(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	err := get(f, "https://nope.example/")
	if !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("err = %v, want ErrNoSuchHost", err)
	}
	if k := httpkit.Classify(err, 0); k != httpkit.KindDial {
		t.Fatalf("unknown host classified %v, want KindDial", k)
	}
}

func TestDialStripsPortAndCase(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Serve(context.Background(), "Mastodon.Social", okHandler); err != nil {
		t.Fatal(err)
	}
	if err := get(f, "https://MASTODON.SOCIAL:443/"); err != nil {
		t.Fatalf("request with port/case failed: %v", err)
	}
}

func TestDoubleBindFails(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Serve(context.Background(), "a.example", okHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Serve(context.Background(), "A.example:80", okHandler); err == nil {
		t.Fatal("second bind succeeded")
	}
}

func TestHostDown(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Serve(context.Background(), "down.example", okHandler); err != nil {
		t.Fatal(err)
	}
	f.SetDown("down.example", true)
	err := get(f, "https://down.example/")
	if !errors.Is(err, ErrHostDown) {
		t.Fatalf("err = %v, want ErrHostDown", err)
	}
	if k := httpkit.Classify(err, 0); k != httpkit.KindDial {
		t.Fatalf("down host classified %v, want KindDial", k)
	}
	f.SetDown("down.example", false)
	if err := get(f, "https://down.example/"); err != nil {
		t.Fatalf("request after recovery failed: %v", err)
	}
}

func TestFaultInjection(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Serve(context.Background(), "flaky.example", okHandler); err != nil {
		t.Fatal(err)
	}
	// One attempt up, one down: every second repeat of a request fails.
	f.SetChaos("flaky.example", &ChaosSpec{FlapUpDials: 1, FlapDownDials: 1})
	var fails int
	for i := 0; i < 10; i++ {
		if err := get(f, "https://flaky.example/x"); err != nil {
			if !errors.Is(err, ErrFlapDown) {
				t.Fatalf("repeat %d: unexpected error %v", i, err)
			}
			fails++
		}
	}
	if fails != 5 {
		t.Fatalf("a 1-up/1-down flap failed %d of 10 repeats, want 5", fails)
	}
	// Two repeats: the schedule, had it stayed, would refuse one.
	f.SetChaos("flaky.example", nil)
	for i := 0; i < 2; i++ {
		if err := get(f, "https://flaky.example/x"); err != nil {
			t.Fatalf("repeat %d after clearing the schedule: %v", i, err)
		}
	}
}

func TestDialContextCancel(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Serve(context.Background(), "slow.example", okHandler); err != nil {
		t.Fatal(err)
	}
	f.SetChaos("slow.example", &ChaosSpec{Latency: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := getCtx(ctx, f, "https://slow.example/"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestFabricClose(t *testing.T) {
	f := NewFabric()
	if _, err := f.Serve(context.Background(), "x.example", okHandler); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := get(f, "https://x.example/"); !errors.Is(err, ErrFabricClosed) {
		t.Fatalf("request after close: %v", err)
	}
	if _, err := f.Serve(context.Background(), "y.example", okHandler); !errors.Is(err, ErrFabricClosed) {
		t.Fatalf("serve after close: %v", err)
	}
}

func TestListenerCloseUnbinds(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	stop, err := f.Serve(context.Background(), "gone.example", okHandler)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if err := get(f, "https://gone.example/"); !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("request after stop: %v", err)
	}
	// The host can be rebound after stop, and a second stop of the old
	// binding leaves the new one alone.
	if _, err := f.Serve(context.Background(), "gone.example", okHandler); err != nil {
		t.Fatalf("rebind failed: %v", err)
	}
	stop()
	if err := get(f, "https://gone.example/"); err != nil {
		t.Fatalf("stale stop unbound the new handler: %v", err)
	}
}

func TestHosts(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	f.Serve(context.Background(), "a.example", okHandler)
	f.Serve(context.Background(), "b.example", okHandler)
	hosts := f.Hosts()
	if len(hosts) != 2 {
		t.Fatalf("Hosts() = %v", hosts)
	}
}

func TestHTTPOverFabric(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("/api/v1/instance", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"uri":%q}`, r.Host)
	})
	stop, err := f.Serve(context.Background(), "inst.example", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Client and a plain client over Transport route alike.
	clients := []*http.Client{f.Client(), {Transport: f.Transport()}}
	for i, scheme := range []string{"http", "https"} {
		resp, err := clients[i].Get(scheme + "://inst.example/api/v1/instance")
		if err != nil {
			t.Fatalf("%s request failed: %v", scheme, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if !strings.Contains(string(body), "inst.example") {
			t.Fatalf("body %q", body)
		}
		if resp.Request == nil || resp.Request.URL.Scheme != scheme {
			t.Fatalf("response does not carry its request: %+v", resp.Request)
		}
	}
}

// TestServerShapedRequest: the handler sees what a server would parse,
// whatever the client request carried, and a header it sets on its
// request does not reach the caller's.
func TestServerShapedRequest(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	type seen struct {
		uri, host, path, query, remote, body string
		length                               int64
		urlHost                              string
	}
	got := make(chan seen, 1)
	f.Serve(context.Background(), "shape.example", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body == nil {
			t.Error("handler got a nil body")
			return
		}
		b, _ := io.ReadAll(r.Body)
		r.Header.Set("X-Handler", "1")
		got <- seen{r.RequestURI, r.Host, r.URL.Path, r.URL.Query().Get("q"), r.RemoteAddr, string(b), r.ContentLength, r.URL.Host}
	}))
	client := f.Client()
	req, _ := http.NewRequest(http.MethodPost, "https://shape.example/a%20b?q=x+y", strings.NewReader("payload"))
	req.Header.Set("Content-Type", "text/plain")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	want := seen{"/a%20b?q=x+y", "shape.example", "/a b", "x y", "memnet", "payload", 7, ""}
	if s := <-got; s != want {
		t.Fatalf("handler saw %+v, want %+v", s, want)
	}
	if h := req.Header; len(h) != 1 || h.Get("Content-Type") != "text/plain" {
		t.Fatalf("the caller's request headers became %v", h)
	}
	if resp, err = client.Get("https://shape.example/"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if s := <-got; s.body != "" || s.length != 0 {
		t.Fatalf("bodyless request reached the handler as %+v", s)
	}
}

// TestHandlerPanicIsTransportError: a panicking handler fails its
// exchange and leaves the process and the fabric running.
func TestHandlerPanicIsTransportError(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	f.Serve(context.Background(), "boom.example", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	f.Serve(context.Background(), "fine.example", okHandler)
	_, err := f.Client().Get("https://boom.example/")
	if err == nil || !strings.Contains(err.Error(), "handler bug") {
		t.Fatalf("err = %v, want the handler's panic", err)
	}
	if k := httpkit.Classify(err, 0); k != httpkit.KindConn {
		t.Fatalf("panic classified %v, want KindConn", k)
	}
	if err := get(f, "https://fine.example/"); err != nil {
		t.Fatalf("fabric broken after a handler panic: %v", err)
	}
}

func TestManyHostsConcurrentHTTP(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	const hosts = 40
	for i := 0; i < hosts; i++ {
		host := fmt.Sprintf("inst%d.example", i)
		h := host
		mux := http.NewServeMux()
		mux.HandleFunc("/whoami", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, h)
		})
		stop, err := f.Serve(context.Background(), host, mux)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		// Four concurrent repeats of one request share a schedule.
		f.SetChaos(host, &ChaosSpec{Seed: uint64(i), Jitter: time.Millisecond})
	}
	client := f.Client()
	var wg sync.WaitGroup
	errs := make(chan error, hosts*4)
	for i := 0; i < hosts*4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			host := fmt.Sprintf("inst%d.example", i%hosts)
			resp, err := client.Get("https://" + host + "/whoami")
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != host {
				errs <- fmt.Errorf("cross-talk: asked %s got %q", host, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < hosts; i++ {
		if st := f.ChaosStats(fmt.Sprintf("inst%d.example", i)); st.Requests != 4 {
			t.Fatalf("inst%d.example counted %d attempts, want 4", i, st.Requests)
		}
	}
}

// TestInjectedLatencyLendsSlot: in a Group of 1, tasks GET a host
// whose every request waits 20 ms on the wire. The waits lend the
// tasks' worker slot, so the exchanges overlap on the wire, and the
// handler, which runs on the slot, never runs twice at once.
func TestInjectedLatencyLendsSlot(t *testing.T) {
	const tasks, latency = 8, 20 * time.Millisecond
	f := NewFabric()
	defer f.Close()
	var handling atomic.Int64
	if _, err := f.Serve(context.Background(), "slow.example", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n := handling.Add(1); n > 1 {
			t.Errorf("%d handler calls at once, bound 1", n)
		}
		time.Sleep(200 * time.Microsecond)
		handling.Add(-1)
		io.WriteString(w, "ok")
	})); err != nil {
		t.Fatal(err)
	}
	f.SetChaos("slow.example", &ChaosSpec{Latency: latency})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var mu sync.Mutex
	inflight, peak := 0, 0
	g := httpkit.NewGroup(ctx, 1)
	start := time.Now()
	for i := 0; i < tasks; i++ {
		g.Go(func(ctx context.Context) error {
			mu.Lock()
			inflight++
			peak = max(peak, inflight)
			mu.Unlock()
			defer func() {
				mu.Lock()
				inflight--
				mu.Unlock()
			}()
			return getCtx(ctx, f, fmt.Sprintf("https://slow.example/%d", i))
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); peak < 2 || elapsed >= tasks*latency/2 {
		t.Fatalf("%d exchanges in flight at peak, %v for %d of %v each; want them overlapping", peak, elapsed, tasks, latency)
	}
}

func TestServeStopIdempotent(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	stop, err := f.Serve(context.Background(), "once.example", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // must not panic
}

// BenchmarkHTTPRequest is one GET over the fabric's client.
func BenchmarkHTTPRequest(b *testing.B) {
	f := NewFabric()
	defer f.Close()
	stop, err := f.Serve(context.Background(), "bench.example", okHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	client := f.Client()
	b.ReportAllocs()
	for b.Loop() {
		resp, err := client.Get("https://bench.example/")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
