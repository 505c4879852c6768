package httpkit_test

import (
	"fmt"
	"net/http"
	"time"

	"flock/internal/httpkit"
)

// busyThenOK answers 503 (retry at once) to its first two requests and
// 200 to the rest.
type busyThenOK struct{ calls int }

func (d *busyThenOK) Do(*http.Request) (*http.Response, error) {
	d.calls++
	code := http.StatusOK
	if d.calls <= 2 {
		code = http.StatusServiceUnavailable
	}
	return &http.Response{StatusCode: code, Header: http.Header{"Retry-After": {"0"}}, Body: http.NoBody}, nil
}

// ExampleNew builds a crawl-ready client: retries with capped exponential
// backoff that honours Retry-After, and per-host circuit breakers.
func ExampleNew() {
	health := httpkit.NewHealthRegistry(httpkit.DefaultBreaker)
	client := httpkit.New(
		httpkit.WithDoer(&busyThenOK{}),
		httpkit.WithUserAgent("flock-crawler/1.0"),
		httpkit.WithRetry(httpkit.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}),
		httpkit.WithBreaker(health),
	)
	req, _ := http.NewRequest("GET", "https://mastodon.example/api/v1/instance", nil)
	resp, err := client.Do(req) // two 503s, then the 200 on the last attempt
	if err != nil {
		fmt.Println(err)
		return
	}
	resp.Body.Close()
	fmt.Println(client.Stats().Requests)
	// Output: 3
}

// ExampleWithHedge turns on tail-latency hedging: when an idempotent GET
// outlives the host's p95, one backup request races it and the first 2xx
// wins. The budget caps hedges at 5% of total requests.
func ExampleWithHedge() {
	client := httpkit.New(
		httpkit.WithHedge(httpkit.HedgePolicy{
			Percentile: 0.95,             // hedge when slower than the host's p95
			MinSamples: 8,                // need a latency history first
			BudgetFrac: 0.05,             // at most 5% of requests grow a backup
			MinDelay:   time.Millisecond, // never hedge instantly
		}),
	)
	req, _ := http.NewRequest("GET", "https://mastodon.example/api/v1/timelines/public", nil)
	_ = req // resp, err := client.Do(req) — hedging is transparent to callers
	stats := client.Stats()
	fmt.Println(stats.HedgesFired, stats.HedgeWins)
	// Output: 0 0
}
