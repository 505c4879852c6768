package memnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"
)

// echoHandler responds with a fixed payload for body-level chaos tests.
func echoHandler(size int) http.Handler {
	body := make([]byte, size)
	for i := range body {
		body[i] = byte('a' + i%26)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	})
}

func TestChaosDialFailDeterministic(t *testing.T) {
	outcomes := func() []bool {
		f := NewFabric()
		defer f.Close()
		if _, err := f.Serve(context.Background(), "a.test", okHandler); err != nil {
			t.Fatal(err)
		}
		f.SetChaos("a.test", &ChaosSpec{Seed: 7, PDialFail: 0.5})
		var out []bool
		for i := 0; i < 40; i++ {
			err := get(f, fmt.Sprintf("https://a.test/item/%d", i))
			if err != nil && !errors.Is(err, ErrChaosDial) {
				t.Fatalf("request %d: unexpected error %v", i, err)
			}
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(), outcomes()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between identically seeded runs", i)
		}
		if !a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("PDialFail=0.5 produced %d/%d failures", fails, len(a))
	}
}

func TestChaosFlapWindows(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Serve(context.Background(), "flap.test", okHandler); err != nil {
		t.Fatal(err)
	}
	f.SetChaos("flap.test", &ChaosSpec{Seed: 1, FlapUpDials: 3, FlapDownDials: 2})
	var got []bool
	for i := 0; i < 10; i++ {
		err := get(f, "https://flap.test/")
		if err != nil && !errors.Is(err, ErrFlapDown) {
			t.Fatalf("repeat %d: unexpected error %v", i, err)
		}
		got = append(got, err == nil)
	}
	// The repeats walk the 3-up/2-down cycle from the request's phase.
	phase := -1
	for p := 0; p < 5 && phase < 0; p++ {
		phase = p
		for i := range got {
			if got[i] != ((p+i)%5 < 3) {
				phase = -1
				break
			}
		}
	}
	if phase < 0 {
		t.Fatalf("flap pattern %v is not a phase of 3 up, 2 down", got)
	}
	st := f.ChaosStats("flap.test")
	if st.Requests != 10 || st.FlapRejected != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func TestChaosResetMidConnection(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	stop, err := f.Serve(context.Background(), "reset.test", echoHandler(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	f.SetChaos("reset.test", &ChaosSpec{Seed: 3, PReset: 1.0, ResetAfterBytes: 2048})
	client := f.Client()
	for i := 0; i < 5; i++ {
		resp, err := client.Get("https://reset.test/big")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		n, rerr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if !errors.Is(rerr, ErrConnReset) || n < 1 || n > 2048 {
			t.Fatalf("request %d: read %d bytes, err %v; want 1..2048 bytes and a reset", i, n, rerr)
		}
	}
	if st := f.ChaosStats("reset.test"); st.Resets != 5 {
		t.Fatalf("resets recorded: %+v, want 5", st)
	}
}

func TestChaosThrottleSlowsTransfer(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	stop, err := f.Serve(context.Background(), "slow.test", echoHandler(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// 256 KiB/s on a 64 KiB body: about 250ms of injected delay.
	f.SetChaos("slow.test", &ChaosSpec{Seed: 5, BytesPerSec: 256 << 10})
	client := f.Client()
	t0 := time.Now()
	resp, err := client.Get("https://slow.test/")
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != 64<<10 {
		t.Fatalf("read %d bytes", n)
	}
	if d := time.Since(t0); d < 200*time.Millisecond {
		t.Fatalf("throttled transfer finished in %v, want >= 200ms", d)
	}
}

func TestChaosLatencyJitterHonoursContext(t *testing.T) {
	f := NewFabric()
	defer f.Close()
	if _, err := f.Serve(context.Background(), "lag.test", okHandler); err != nil {
		t.Fatal(err)
	}
	f.SetChaos("lag.test", &ChaosSpec{Seed: 9, Latency: time.Second, Jitter: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	if err := getCtx(ctx, f, "https://lag.test/"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(t0); d > 500*time.Millisecond {
		t.Fatalf("cancelled exchange took %v", d)
	}
}

// TestStormApplyDownsDeadHostsAndSetsSpecs: Apply marks a storm's dead
// hosts down and installs each spec on its host.
func TestStormApplyDownsDeadHostsAndSetsSpecs(t *testing.T) {
	storm := &Storm{
		Dead:  []string{"a", "b"},
		Specs: map[string]*ChaosSpec{"c": {Seed: 1, PDialFail: 1}, "d": {Seed: 2}},
	}
	f := NewFabric()
	defer f.Close()
	for _, h := range []string{"a", "b", "c", "d"} {
		if _, err := f.Serve(context.Background(), h, okHandler); err != nil {
			t.Fatal(err)
		}
	}
	storm.Apply(f)
	for _, h := range storm.Dead {
		if err := get(f, "https://"+h+"/"); !errors.Is(err, ErrHostDown) {
			t.Fatalf("request to dead host %s: %v", h, err)
		}
	}
	if err := get(f, "https://c/"); err == nil || errors.Is(err, ErrHostDown) {
		t.Fatalf("request to c, whose spec refuses every request: %v", err)
	}
	if err := get(f, "https://d/"); err != nil {
		t.Fatalf("request to d, whose spec injects nothing: %v", err)
	}
	if st := f.ChaosStats("c"); st.FailedDials != 1 || st.Requests != 1 {
		t.Fatalf("c's schedule saw %+v, want one request, refused", st)
	}
}

func TestChaosSlowRequestsStallPooledConns(t *testing.T) {
	run := func() (slow int, d time.Duration) {
		f := NewFabric()
		defer f.Close()
		stop, err := f.Serve(context.Background(), "tail.test", echoHandler(256))
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		f.SetChaos("tail.test", &ChaosSpec{Seed: 11, PSlowReq: 0.5, SlowReqDelay: 20 * time.Millisecond})
		t0 := time.Now()
		// Repeats of one request: each attempt draws its own stall.
		for i := 0; i < 12; i++ {
			if err := get(f, "https://tail.test/"); err != nil {
				t.Fatal(err)
			}
		}
		return f.ChaosStats("tail.test").SlowRequests, time.Since(t0)
	}
	slow1, d := run()
	if slow1 == 0 || slow1 >= 12 {
		t.Fatalf("PSlowReq=0.5 stalled %d/12 exchanges", slow1)
	}
	// Every stall is slept inside its exchange.
	if want := time.Duration(slow1) * 20 * time.Millisecond; d < want {
		t.Fatalf("%d stalls finished in %v, want >= %v", slow1, d, want)
	}
	slow2, _ := run()
	if slow1 != slow2 {
		t.Fatalf("identically seeded runs stalled %d vs %d exchanges", slow1, slow2)
	}
}

// fuzzRequest is one request of FuzzFaultSchedule's list.
type fuzzRequest struct {
	host, method, uri string
	body              []byte
}

// key names the request's fault key within the fuzz run.
func (r fuzzRequest) key() string {
	return r.host + " " + r.method + " " + r.uri + " " + string(r.body)
}

// FuzzFaultSchedule: a decision depends on the request and its attempt
// number alone. The fuzzer builds a list of requests with repeats and
// replays it twice on fresh schedules, once in list order and once in
// an interleaving that keeps each key's own order; every (key, attempt)
// must get the same decision both times, and each host the same stats.
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 0, 2, 0, 1, 3}, []byte{5, 4, 3, 2, 1})
	f.Add(uint64(99), []byte{0x10, 0x31, 0x10, 0x10, 0x72, 0x31}, []byte{1})
	f.Add(uint64(7), []byte("the same request, retried"), []byte{0xff, 0, 0x80})
	f.Fuzz(func(t *testing.T, seed uint64, ops, perm []byte) {
		spec := ChaosSpec{
			Seed:          seed,
			PDialFail:     0.2,
			FlapUpDials:   1 + int(seed%4),
			FlapDownDials: 1 + int(seed>>2%3),
			Latency:       time.Millisecond,
			Jitter:        time.Millisecond,
			PSlowReq:      0.3,
			SlowReqDelay:  5 * time.Millisecond,
			PReset:        0.2,
		}
		reqs := make([]fuzzRequest, len(ops))
		for i, b := range ops {
			r := fuzzRequest{host: []string{"a.test", "B.test:443"}[b&1], method: http.MethodGet}
			r.uri = []string{"/x", "/x?q=1", "/y", "/api/v1/z?limit=40"}[b>>1&3]
			if b>>3&1 == 1 {
				r.method = http.MethodPost
				r.body = []byte{"pq"[b>>4&1]}
			}
			reqs[i] = r
		}

		type attempt struct {
			key string
			n   int
		}
		replay := func(order []fuzzRequest) (map[attempt]decision, map[string]ChaosStats) {
			scheds := map[string]*Schedule{}
			seen := map[string]int{}
			out := map[attempt]decision{}
			for _, r := range order {
				host := canonical(r.host)
				s := scheds[host]
				if s == nil {
					s = NewSchedule(r.host, spec)
					scheds[host] = s
				}
				k := r.key()
				out[attempt{k, seen[k]}] = s.decide(r.method, r.uri, r.body)
				seen[k]++
			}
			stats := map[string]ChaosStats{}
			for h, s := range scheds {
				stats[h] = s.stats
			}
			return out, stats
		}

		// The interleaving: queue each key's requests in list order, then
		// let perm pick which key goes next.
		var keys []string
		queues := map[string][]fuzzRequest{}
		for _, r := range reqs {
			k := r.key()
			if _, ok := queues[k]; !ok {
				keys = append(keys, k)
			}
			queues[k] = append(queues[k], r)
		}
		var mixed []fuzzRequest
		for i := 0; len(keys) > 0; i++ {
			j := 0
			if len(perm) > 0 {
				j = int(perm[i%len(perm)]) % len(keys)
			}
			k := keys[j]
			mixed = append(mixed, queues[k][0])
			if queues[k] = queues[k][1:]; len(queues[k]) == 0 {
				keys = append(keys[:j], keys[j+1:]...)
			}
		}

		want, wantStats := replay(reqs)
		got, gotStats := replay(mixed)
		if len(got) != len(want) {
			t.Fatalf("replays decided %d and %d attempts", len(want), len(got))
		}
		for a, d := range want {
			if got[a] != d {
				t.Fatalf("%q attempt %d: decided %+v in list order, %+v interleaved", a.key, a.n, d, got[a])
			}
		}
		for h, st := range wantStats {
			if gotStats[h] != st {
				t.Fatalf("host %s stats: %+v in list order, %+v interleaved", h, st, gotStats[h])
			}
		}
	})
}
