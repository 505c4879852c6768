package memnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestListenDialRoundTrip(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	l, err := f.Listen("example.com")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			return
		}
		c.Write([]byte("pong:" + string(buf)))
	}()
	c, err := f.DialContext(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong:hello" {
		t.Fatalf("got %q", buf)
	}
}

func TestDialUnknownHost(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	_, err := f.DialContext(context.Background(), "nope.example")
	if !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("err = %v, want ErrNoSuchHost", err)
	}
}

func TestDialStripsPortAndCase(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Listen("Mastodon.Social"); err != nil {
		t.Fatal(err)
	}
	go func() {
		l := f.hosts["mastodon.social"]
		c, _ := l.Accept()
		if c != nil {
			c.Close()
		}
	}()
	c, err := f.DialContext(context.Background(), "MASTODON.SOCIAL:443")
	if err != nil {
		t.Fatalf("dial with port/case failed: %v", err)
	}
	c.Close()
}

func TestDoubleBindFails(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Listen("a.example"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Listen("a.example"); err == nil {
		t.Fatal("second bind succeeded")
	}
}

func TestHostDown(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Listen("down.example"); err != nil {
		t.Fatal(err)
	}
	f.SetDown("down.example", true)
	if !f.IsDown("down.example") {
		t.Fatal("IsDown = false")
	}
	_, err := f.DialContext(context.Background(), "down.example")
	if !errors.Is(err, ErrHostDown) {
		t.Fatalf("err = %v, want ErrHostDown", err)
	}
	f.SetDown("down.example", false)
	go func() {
		l := f.hosts["down.example"]
		c, _ := l.Accept()
		if c != nil {
			c.Close()
		}
	}()
	if _, err := f.DialContext(context.Background(), "down.example"); err != nil {
		t.Fatalf("dial after recovery failed: %v", err)
	}
}

func TestFaultInjection(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	l, err := f.Listen("flaky.example")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	// One dial up, one down: every second dial fails.
	f.SetChaos("flaky.example", &ChaosSpec{FlapUpDials: 1, FlapDownDials: 1})
	var fails int
	for i := 0; i < 10; i++ {
		c, err := f.DialContext(context.Background(), "flaky.example")
		if err != nil {
			fails++
			continue
		}
		c.Close()
	}
	if fails != 5 {
		t.Fatalf("a 1-up/1-down flap produced %d failures in 10 dials, want 5", fails)
	}
	// Two dials: the schedule, had it stayed, would refuse the second.
	f.SetChaos("flaky.example", nil)
	for i := 0; i < 2; i++ {
		c, err := f.DialContext(context.Background(), "flaky.example")
		if err != nil {
			t.Fatalf("dial %d after clearing the schedule: %v", i, err)
		}
		c.Close()
	}
}

func TestDialContextCancel(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Listen("slow.example"); err != nil {
		t.Fatal(err)
	}
	f.SetChaos("slow.example", &ChaosSpec{Latency: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := f.DialContext(ctx, "slow.example")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestFabricClose(t *testing.T) {
	f := NewFabric()
	if _, err := f.Listen("x.example"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.DialContext(context.Background(), "x.example"); !errors.Is(err, ErrFabricClosed) {
		t.Fatalf("dial after close: %v", err)
	}
	if _, err := f.Listen("y.example"); !errors.Is(err, ErrFabricClosed) {
		t.Fatalf("listen after close: %v", err)
	}
}

func TestListenerCloseUnbinds(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	l, err := f.Listen("gone.example")
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := f.DialContext(context.Background(), "gone.example"); !errors.Is(err, ErrNoSuchHost) {
		t.Fatalf("dial after listener close: %v", err)
	}
	// Host can be rebound after close.
	if _, err := f.Listen("gone.example"); err != nil {
		t.Fatalf("rebind failed: %v", err)
	}
}

func TestAcceptAfterClose(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	l, _ := f.Listen("z.example")
	l.Close()
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after close: %v", err)
	}
}

func TestHosts(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	f.Listen("a.example")
	f.Listen("b.example")
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

	client := f.Client()
	for _, scheme := range []string{"http", "https"} {
		resp, err := client.Get(scheme + "://inst.example/api/v1/instance")
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

func BenchmarkHTTPRequest(b *testing.B) {
	f := NewFabric()
	defer f.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	stop, err := f.Serve(context.Background(), "bench.example", mux)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	client := f.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get("https://bench.example/")
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
