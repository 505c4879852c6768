package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"flock/internal/memnet"
)

// TestChaosMiddlewareKeyedByRequest: the middleware's faults follow the
// request and its attempt number, not arrival order. The same requests
// replayed in two orders that keep each request's own repeats in order
// get the same status for every (request, attempt).
func TestChaosMiddlewareKeyedByRequest(t *testing.T) {
	type req struct{ host, uri string }
	var reqs []req
	for _, host := range []string{"mastodon.social", "hachyderm.io", "fosstodon.org"} {
		for i := 0; i < 8; i++ {
			r := req{host, fmt.Sprintf("/api/v1/accounts/%d/statuses?limit=40", i)}
			// Three attempts of each request, as a retrying crawler sends.
			reqs = append(reqs, r, r, r)
		}
	}
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	statuses := func(order []req) map[string]int {
		h := chaosMiddleware(memnet.ChaosSpec{Seed: 7, PDialFail: 0.3}, ok)
		seen := map[req]int{}
		out := map[string]int{}
		for _, r := range order {
			in := httptest.NewRequest(http.MethodGet, r.uri, nil)
			in.Host = r.host
			w := httptest.NewRecorder()
			h.ServeHTTP(w, in)
			out[fmt.Sprintf("%s%s #%d", r.host, r.uri, seen[r])] = w.Code
			seen[r]++
		}
		return out
	}
	reversed := make([]req, len(reqs))
	for i, r := range reqs {
		reversed[len(reqs)-1-i] = r
	}
	want, got := statuses(reqs), statuses(reversed)
	failed := 0
	for k, code := range want {
		if got[k] != code {
			t.Errorf("%s: status %d in list order, %d reversed", k, code, got[k])
		}
		if code == http.StatusServiceUnavailable {
			failed++
		}
	}
	if failed == 0 || failed == len(want) {
		t.Fatalf("-chaos-fail 0.3 failed %d of %d attempts", failed, len(want))
	}
}
