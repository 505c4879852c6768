package birdsite

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"flock/internal/vclock"
	"flock/internal/world"
)

var (
	tw  *world.World
	svc *Service
	ts  *httptest.Server
)

func setup(t testing.TB) (*Service, *httptest.Server) {
	if svc != nil {
		return svc, ts
	}
	cfg := world.DefaultConfig(300)
	cfg.Seed = 11
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tw = w
	svc = New(w)
	ts = httptest.NewServer(svc.Handler())
	return svc, ts
}

func getJSON(t testing.TB, base, path string, out any) *http.Response {
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == 200 {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", path, err, body)
		}
	}
	return resp
}

func firstMigrant(t testing.TB, pred func(*world.User) bool) *world.User {
	for _, idx := range tw.Migrants {
		u := tw.Users[idx]
		if pred(u) {
			return u
		}
	}
	t.Skip("no migrant matches predicate")
	return nil
}

func TestSearchKeyword(t *testing.T) {
	_, srv := setup(t)
	var resp SearchResponse
	q := url.QueryEscape("mastodon")
	getJSON(t, srv.URL, "/2/tweets/search/all?query="+q+"&max_results=50", &resp)
	if len(resp.Data) == 0 {
		t.Fatal("keyword search returned nothing")
	}
	for _, tweet := range resp.Data {
		if !strings.Contains(strings.ToLower(tweet.Text), "mastodon") {
			t.Fatalf("result does not match query: %q", tweet.Text)
		}
	}
}

func TestSearchHashtag(t *testing.T) {
	_, srv := setup(t)
	var resp SearchResponse
	q := url.QueryEscape("#TwitterMigration")
	getJSON(t, srv.URL, "/2/tweets/search/all?query="+q+"&max_results=100", &resp)
	if len(resp.Data) == 0 {
		t.Fatal("hashtag search returned nothing")
	}
	for _, tweet := range resp.Data {
		if !strings.Contains(strings.ToLower(tweet.Text), "#twittermigration") {
			t.Fatalf("hashtag missing in %q", tweet.Text)
		}
	}
}

func TestSearchURLOperator(t *testing.T) {
	_, srv := setup(t)
	var resp SearchResponse
	q := url.QueryEscape(`url:"mastodon.social"`)
	getJSON(t, srv.URL, "/2/tweets/search/all?query="+q+"&max_results=100", &resp)
	if len(resp.Data) == 0 {
		t.Fatal("url: search returned nothing")
	}
	for _, tweet := range resp.Data {
		if !strings.Contains(tweet.Text, "mastodon.social") {
			t.Fatalf("result lacks domain: %q", tweet.Text)
		}
	}
}

func TestSearchPhrase(t *testing.T) {
	_, srv := setup(t)
	var resp SearchResponse
	q := url.QueryEscape(`"bye bye twitter"`)
	getJSON(t, srv.URL, "/2/tweets/search/all?query="+q+"&max_results=100", &resp)
	for _, tweet := range resp.Data {
		if !strings.Contains(strings.ToLower(tweet.Text), "bye bye twitter") {
			t.Fatalf("phrase missing in %q", tweet.Text)
		}
	}
}

func TestSearchOR(t *testing.T) {
	_, srv := setup(t)
	var a, b, both SearchResponse
	getJSON(t, srv.URL, "/2/tweets/search/all?query="+url.QueryEscape("#ByeByeTwitter")+"&max_results=500", &a)
	getJSON(t, srv.URL, "/2/tweets/search/all?query="+url.QueryEscape("#RIPTwitter")+"&max_results=500", &b)
	getJSON(t, srv.URL, "/2/tweets/search/all?query="+url.QueryEscape("#ByeByeTwitter OR #RIPTwitter")+"&max_results=500", &both)
	if len(both.Data) < len(a.Data) || len(both.Data) < len(b.Data) {
		t.Fatalf("OR smaller than operands: %d vs %d/%d", len(both.Data), len(a.Data), len(b.Data))
	}
	if len(both.Data) > len(a.Data)+len(b.Data) {
		t.Fatalf("OR larger than union bound")
	}
}

func TestSearchTimeWindow(t *testing.T) {
	_, srv := setup(t)
	var resp SearchResponse
	start := vclock.Takeover.Format(time.RFC3339)
	end := vclock.Takeover.Add(48 * time.Hour).Format(time.RFC3339)
	getJSON(t, srv.URL, "/2/tweets/search/all?query=mastodon&start_time="+url.QueryEscape(start)+"&end_time="+url.QueryEscape(end)+"&max_results=500", &resp)
	for _, tweet := range resp.Data {
		at, err := time.Parse(time.RFC3339, tweet.CreatedAt)
		if err != nil {
			t.Fatal(err)
		}
		if at.Before(vclock.Takeover) || !at.Before(vclock.Takeover.Add(48*time.Hour)) {
			t.Fatalf("tweet outside window: %s", tweet.CreatedAt)
		}
	}
}

func TestSearchPaginationComplete(t *testing.T) {
	_, srv := setup(t)
	q := url.QueryEscape("mastodon")
	seen := map[string]bool{}
	token := ""
	pages := 0
	for {
		path := "/2/tweets/search/all?query=" + q + "&max_results=40"
		if token != "" {
			path += "&next_token=" + token
		}
		var resp SearchResponse
		getJSON(t, srv.URL, path, &resp)
		for _, tweet := range resp.Data {
			if seen[tweet.ID] {
				t.Fatalf("duplicate tweet %s across pages", tweet.ID)
			}
			seen[tweet.ID] = true
		}
		pages++
		if resp.Meta.NextToken == "" {
			break
		}
		token = resp.Meta.NextToken
		if pages > 1000 {
			t.Fatal("pagination never terminated")
		}
	}
	if pages < 2 {
		t.Skip("corpus too small to exercise pagination")
	}
	// Compare against a single giant page.
	var all SearchResponse
	getJSON(t, srv.URL, "/2/tweets/search/all?query="+q+"&max_results=500", &all)
	if len(all.Data) <= len(seen) && len(all.Data) == 500 {
		// fine: single page capped
		return
	}
	if len(seen) < len(all.Data) {
		t.Fatalf("pagination lost results: %d paged vs %d single", len(seen), len(all.Data))
	}
}

func TestSearchNewestFirst(t *testing.T) {
	_, srv := setup(t)
	var resp SearchResponse
	getJSON(t, srv.URL, "/2/tweets/search/all?query=mastodon&max_results=100", &resp)
	var prev time.Time
	for i, tweet := range resp.Data {
		at, _ := time.Parse(time.RFC3339, tweet.CreatedAt)
		if i > 0 && at.After(prev) {
			t.Fatal("results not newest-first")
		}
		prev = at
	}
}

func TestUserLookupByUsername(t *testing.T) {
	_, srv := setup(t)
	u := firstMigrant(t, func(u *world.User) bool { return u.HandleInBio && !u.Deleted && !u.Suspended })
	var resp UserResponse
	getJSON(t, srv.URL, "/2/users/by/username/"+u.Username, &resp)
	if resp.Data == nil {
		t.Fatal("no user data")
	}
	if resp.Data.Username != u.Username {
		t.Fatalf("username %q", resp.Data.Username)
	}
	if !strings.Contains(resp.Data.Description, u.MastodonUsername) {
		t.Fatalf("bio lacks mastodon handle: %q", resp.Data.Description)
	}
	if resp.Data.PublicMetrics.Following != tw.Graph.OutDegree(u.ID) {
		t.Fatal("following count mismatch")
	}
}

func TestUserLookupUnknown404(t *testing.T) {
	_, srv := setup(t)
	resp := getJSON(t, srv.URL, "/2/users/by/username/no_such_user_xyz", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestTimelineStates(t *testing.T) {
	_, srv := setup(t)
	cases := []struct {
		pred func(*world.User) bool
		code int
	}{
		{func(u *world.User) bool { return u.Deleted }, http.StatusNotFound},
		{func(u *world.User) bool { return u.Suspended }, http.StatusForbidden},
		{func(u *world.User) bool { return u.Protected && !u.Deleted && !u.Suspended }, http.StatusUnauthorized},
	}
	for _, c := range cases {
		var target *world.User
		for _, idx := range tw.Migrants {
			if c.pred(tw.Users[idx]) {
				target = tw.Users[idx]
				break
			}
		}
		if target == nil {
			continue
		}
		resp := getJSON(t, srv.URL, "/2/users/"+target.TwitterID.String()+"/tweets", nil)
		if resp.StatusCode != c.code {
			t.Fatalf("state error code = %d, want %d", resp.StatusCode, c.code)
		}
	}
}

func TestTimelinePaginationComplete(t *testing.T) {
	_, srv := setup(t)
	u := firstMigrant(t, func(u *world.User) bool {
		return !u.Deleted && !u.Suspended && !u.Protected && len(tw.TweetsByUser[u.ID]) > 25
	})
	var collected []TweetDTO
	token := ""
	for {
		path := fmt.Sprintf("/2/users/%s/tweets?max_results=10", u.TwitterID)
		if token != "" {
			path += "&pagination_token=" + token
		}
		var resp SearchResponse
		getJSON(t, srv.URL, path, &resp)
		collected = append(collected, resp.Data...)
		if resp.Meta.NextToken == "" {
			break
		}
		token = resp.Meta.NextToken
	}
	if len(collected) != len(tw.TweetsByUser[u.ID]) {
		t.Fatalf("timeline pagination returned %d of %d tweets", len(collected), len(tw.TweetsByUser[u.ID]))
	}
	seen := map[string]bool{}
	for _, d := range collected {
		if seen[d.ID] {
			t.Fatal("duplicate in paginated timeline")
		}
		seen[d.ID] = true
	}
}

func TestFollowingMatchesGraph(t *testing.T) {
	_, srv := setup(t)
	u := firstMigrant(t, func(u *world.User) bool {
		return !u.Deleted && !u.Suspended && tw.Graph.OutDegree(u.ID) > 5
	})
	var resp UsersResponse
	getJSON(t, srv.URL, "/2/users/"+u.TwitterID.String()+"/following?max_results=1000", &resp)
	want := tw.Graph.OutDegree(u.ID)
	if want > 1000 {
		want = 1000
	}
	if len(resp.Data) != want {
		t.Fatalf("following returned %d, want %d", len(resp.Data), want)
	}
}

func TestFollowingPagination(t *testing.T) {
	_, srv := setup(t)
	u := firstMigrant(t, func(u *world.User) bool {
		return !u.Deleted && !u.Suspended && tw.Graph.OutDegree(u.ID) > 12
	})
	var all []UserDTO
	token := ""
	for {
		path := "/2/users/" + u.TwitterID.String() + "/following?max_results=5"
		if token != "" {
			path += "&pagination_token=" + token
		}
		var resp UsersResponse
		getJSON(t, srv.URL, path, &resp)
		all = append(all, resp.Data...)
		if resp.Meta.NextToken == "" {
			break
		}
		token = resp.Meta.NextToken
	}
	if len(all) != tw.Graph.OutDegree(u.ID) {
		t.Fatalf("paged following = %d, want %d", len(all), tw.Graph.OutDegree(u.ID))
	}
}

func TestSearchMissingQuery400(t *testing.T) {
	_, srv := setup(t)
	resp := getJSON(t, srv.URL, "/2/tweets/search/all", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestAnnouncementsDiscoverableViaSearch(t *testing.T) {
	// The crawl methodology depends on announcement tweets carrying
	// either a handle or an instance URL; verify search can find a
	// migrant's announcement through the url: operator.
	_, srv := setup(t)
	u := firstMigrant(t, func(u *world.User) bool {
		return u.AnnounceStyle == 1 && !u.Deleted && !u.Suspended
	})
	domain := tw.Instances[u.FirstInstance].Domain
	var resp SearchResponse
	getJSON(t, srv.URL, "/2/tweets/search/all?query="+url.QueryEscape(`url:"`+domain+`"`)+"&max_results=500", &resp)
	found := false
	for _, tweet := range resp.Data {
		if tweet.AuthorID == u.TwitterID.String() {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("announcement for %s on %s not found via url: search", u.Username, domain)
	}
}

func TestSearchTrimsLikeIndex(t *testing.T) {
	s, _ := setup(t)
	for _, c := range []struct {
		bare  string
		forms []string
	}{
		{"mastodon", []string{"(mastodon)", "mastodon)", "[mastodon]", "'mastodon'", "—mastodon—", `"'mastodon'"`}},
		{"mastodon OR fediverse", []string{"(mastodon OR fediverse)", "[mastodon OR 'fediverse']"}},
	} {
		want := s.search(parseQuery(c.bare), vclock.StudyStart, vclock.StudyEnd)
		if len(want) == 0 {
			t.Fatalf("%s: no results", c.bare)
		}
		for _, q := range c.forms {
			if got := s.search(parseQuery(q), vclock.StudyStart, vclock.StudyEnd); !slices.Equal(got, want) {
				t.Errorf("%s: %d results, want the %d of %s", q, len(got), len(want), c.bare)
			}
		}
	}
}

// indexSink keeps BenchmarkIndexBuild's result live.
var indexSink *Service

// BenchmarkIndexBuild times New alone on the seed-99 300-migrant world,
// the paper_300 benchmark workload's world. It loops to b.N rather than
// on b.Loop, which in Go 1.24 times the first -cpu value at the previous
// GOMAXPROCS.
func BenchmarkIndexBuild(b *testing.B) {
	cfg := world.DefaultConfig(300)
	cfg.Seed = 99
	w, err := world.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		indexSink = New(w)
	}
}

func BenchmarkSearch(b *testing.B) {
	s, _ := setup(b)
	q := parseQuery("mastodon")
	start := vclock.StudyStart
	end := vclock.StudyEnd
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.search(q, start, end)
	}
}
