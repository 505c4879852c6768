// Package crawler implements the paper's data-collection pipeline (§3):
// instance index fetch, tweet collection, hierarchical account mapping,
// timeline crawls on both platforms with the §3.2 failure taxonomy,
// stratified followee sampling (§3.3), weekly-activity crawls and
// toxicity scoring.
//
// The crawler speaks to the platforms exclusively over HTTP. Pointed at
// the simulated services it reproduces the paper's dataset; pointed at
// real endpoints (with real hosts and credentials) the same code would
// crawl the real platforms.
//
// # Phases and units
//
// After the instance index, six phases are lists of work units: the
// search queries, the collected authors, every pair's Twitter and
// Mastodon timelines, the §3.3 followee sample and the activity domains.
// A unit is a key plus a fetch that returns the unit's Record and its
// gap, the terminal failure CrawlReport lists under the key. One runner
// runs every such phase, in batches of consecutive phases that share a
// worker group: the two timeline phases form one batch, whose units
// reach disjoint hosts, and every other phase runs alone. The runner
// skips the keys already in Progress.Done and schedules each key once,
// fans the units out over Concurrency workers, writes every unit's
// record and ends the batch's phases in order. In the timeline batch the
// Mastodon units are scheduled first, so their retry backoffs against
// dead instances overlap the Twitter units, and their records wait until
// the Twitter phase's End record is written. A failed unit's record
// carries its gap as Gap and, when the gap is the host gate's quarantine
// skip, the skipped host as SkippedHost. When the crawl's context is
// done as a fetch returns, the runner writes nothing for the unit: the
// batch fails with the context error, and a resumed run fetches the unit
// again. The instance index is one request whose failure is fatal, so it
// has no units.
//
// Toxicity scoring is not a runner phase. It has one request per post
// and no unit keys or gaps: its End record carries every score, and a
// cancelled phase writes a keyless record with the scores fetched so far
// (-1 for the rest), so a resumed run skips the posts already scored.
//
// # Records
//
// The crawl changes its Progress only by applying Records
// (Progress.Apply): one per completed work unit, and an End record that
// closes each phase and advances Progress.Phase. A Checkpoint can thus
// persist a snapshot plus the records applied since, and a resumed
// progress replays them through the same function. A unit record's key
// joins Progress.Done, the one done set, and every End record clears it,
// so it only ever holds units of the phase in progress. A unit record's
// Gap joins Progress.Gaps under its phase and key, and its SkippedHost
// counts one unit in Progress.Skipped. End records leave both, so they
// outlive their phase and hold the failures of the whole crawl, which
// Crawler.Report reads.
//
//	phase        key         payload             Apply
//	index        (End)       Instances           sets Dataset.Instances
//	tweets       query       Class, Tweets       merges the tweets into
//	                                             SeenTweets (instance-link
//	                                             class wins)
//	tweets       (End)       -                   dedups SeenTweets into
//	                                             sorted CollectedTweets;
//	                                             clears SeenTweets
//	mapping      author ID   Pair (nil: none)    appends the pair
//	mapping      (End)       -                   sorts Pairs by Twitter ID
//	twitter_tl   Twitter ID  TwitterTL           stores the timeline
//	mastodon_tl  Twitter ID  MastodonTL          stores the timeline
//	followees    Twitter ID  Followees,          stores each list present
//	                         Following           (absent: failed or no
//	                                             account)
//	activity     domain      Weeks (nil: gap)    stores the weeks
//	toxicity     (none)      Scores              sets every timeline
//	                                             post's score
//	toxicity     (End)       Scores              sets every timeline
//	                                             post's score
//
// A unit record of any keyed phase may also carry Gap and SkippedHost.
// A unit record whose key is already done is an error. The End records
// of the timeline, followee and activity phases only clear Done and
// advance the phase.
package crawler

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
	"time"

	"flock/internal/httpkit"
	"flock/internal/jsonx"
	"flock/internal/toxsvc"
)

// TwitterClient wraps the Twitter v2 endpoints the crawl uses.
type TwitterClient struct {
	Base string // e.g. "https://api.birdsite.test"
	C    *httpkit.Client
}

// TweetJSON mirrors the v2 tweet payload.
type TweetJSON struct {
	ID        string `json:"id"`
	Text      string `json:"text"`
	AuthorID  string `json:"author_id"`
	CreatedAt string `json:"created_at"`
	Source    string `json:"source"`
}

// UserJSON holds the fields of the v2 user payload that the crawl
// reads; the decoder skips the rest.
type UserJSON struct {
	ID            string `json:"id"`
	Name          string `json:"name"`
	Username      string `json:"username"`
	Description   string `json:"description"`
	Location      string `json:"location"`
	URL           string `json:"url"`
	Verified      bool   `json:"verified"`
	CreatedAt     string `json:"created_at"`
	PublicMetrics struct {
		Followers int `json:"followers_count"`
		Following int `json:"following_count"`
	} `json:"public_metrics"`
}

// searchEnvelope is a page of the Twitter timeline and search
// endpoints, the crawl's most fetched shape. It decodes itself without
// reflection (see httpkit.SelfDecoder).
type searchEnvelope struct {
	Data []TweetJSON `json:"data"`
	Meta struct {
		NextToken string `json:"next_token"`
	} `json:"meta"`
}

// The keys searchEnvelope's decoder reads, in the order of its fields.
var (
	envelopeKeys = []string{"data", "meta"}
	metaKeys     = []string{"next_token"}
	tweetKeys    = []string{"id", "text", "author_id", "created_at", "source"}
)

// DecodeJSON decodes a page with jsonx, or declines it.
func (e *searchEnvelope) DecodeJSON(body []byte) bool {
	s := jsonx.NewScanner(body)
	var env searchEnvelope
	s.Object(envelopeKeys, func(i int) {
		if i == 1 {
			s.Object(metaKeys, func(int) { env.Meta.NextToken = s.String() })
			return
		}
		env.Data = jsonx.Slice(s, func(t *TweetJSON) {
			fields := [...]*string{&t.ID, &t.Text, &t.AuthorID, &t.CreatedAt, &t.Source}
			s.Object(tweetKeys, func(i int) { *fields[i] = s.String() })
		})
	})
	if s.Declined() {
		return false
	}
	*e = env
	return true
}

type usersEnvelope struct {
	Data []UserJSON `json:"data"`
	Meta struct {
		NextToken string `json:"next_token"`
	} `json:"meta"`
}

type userEnvelope struct {
	Data *UserJSON `json:"data"`
}

// SearchAll drains the full-archive search for query in [start, end).
func (t *TwitterClient) SearchAll(ctx context.Context, query string, start, end time.Time) ([]TweetJSON, error) {
	return httpkit.Paginate(ctx, func(ctx context.Context, token string) (httpkit.Page[TweetJSON], error) {
		q := url.Values{}
		q.Set("query", query)
		q.Set("start_time", start.UTC().Format(time.RFC3339))
		q.Set("end_time", end.UTC().Format(time.RFC3339))
		q.Set("max_results", "500")
		if token != "" {
			q.Set("next_token", token)
		}
		var env searchEnvelope
		if err := t.C.GetJSON(ctx, t.Base+"/2/tweets/search/all?"+q.Encode(), &env); err != nil {
			return httpkit.Page[TweetJSON]{}, err
		}
		return httpkit.Page[TweetJSON]{Items: env.Data, Next: env.Meta.NextToken}, nil
	})
}

// UserByID fetches one user.
func (t *TwitterClient) UserByID(ctx context.Context, id string) (*UserJSON, error) {
	var env userEnvelope
	if err := t.C.GetJSON(ctx, t.Base+"/2/users/"+url.PathEscape(id), &env); err != nil {
		return nil, err
	}
	if env.Data == nil {
		return nil, fmt.Errorf("crawler: user %s: empty payload", id)
	}
	return env.Data, nil
}

// Timeline drains a user's tweets in [start, end).
func (t *TwitterClient) Timeline(ctx context.Context, id string, start, end time.Time) ([]TweetJSON, error) {
	return httpkit.Paginate(ctx, func(ctx context.Context, token string) (httpkit.Page[TweetJSON], error) {
		q := url.Values{}
		q.Set("start_time", start.UTC().Format(time.RFC3339))
		q.Set("end_time", end.UTC().Format(time.RFC3339))
		q.Set("max_results", "100")
		if token != "" {
			q.Set("pagination_token", token)
		}
		var env searchEnvelope
		if err := t.C.GetJSON(ctx, t.Base+"/2/users/"+url.PathEscape(id)+"/tweets?"+q.Encode(), &env); err != nil {
			return httpkit.Page[TweetJSON]{}, err
		}
		return httpkit.Page[TweetJSON]{Items: env.Data, Next: env.Meta.NextToken}, nil
	})
}

// Following drains a user's followees.
func (t *TwitterClient) Following(ctx context.Context, id string) ([]UserJSON, error) {
	return httpkit.Paginate(ctx, func(ctx context.Context, token string) (httpkit.Page[UserJSON], error) {
		q := url.Values{}
		q.Set("max_results", "1000")
		if token != "" {
			q.Set("pagination_token", token)
		}
		var env usersEnvelope
		if err := t.C.GetJSON(ctx, t.Base+"/2/users/"+url.PathEscape(id)+"/following?"+q.Encode(), &env); err != nil {
			return httpkit.Page[UserJSON]{}, err
		}
		return httpkit.Page[UserJSON]{Items: env.Data, Next: env.Meta.NextToken}, nil
	})
}

// MastodonClient wraps the per-instance Mastodon endpoints.
type MastodonClient struct {
	C *httpkit.Client
}

// MastoAccountJSON mirrors the account entity.
type MastoAccountJSON struct {
	ID             string            `json:"id"`
	Username       string            `json:"username"`
	Acct           string            `json:"acct"`
	URL            string            `json:"url"`
	CreatedAt      string            `json:"created_at"`
	FollowersCount int               `json:"followers_count"`
	FollowingCount int               `json:"following_count"`
	StatusesCount  int               `json:"statuses_count"`
	Moved          *MastoAccountJSON `json:"moved"`
	AlsoKnownAs    []string          `json:"also_known_as"`
}

// MastoStatusJSON holds the fields of the status entity that the crawl
// reads; the decoder skips the rest, the embedded account included.
type MastoStatusJSON struct {
	ID        string `json:"id"`
	CreatedAt string `json:"created_at"`
	Content   string `json:"content"`
}

// statusPage is a page of an account's statuses, the shape of every
// Mastodon timeline request. It decodes itself without reflection (see
// httpkit.SelfDecoder), checking and skipping the embedded account.
type statusPage []MastoStatusJSON

// statusKeys are the keys statusPage's decoder reads, in the order of
// MastoStatusJSON's fields.
var statusKeys = []string{"id", "created_at", "content"}

// DecodeJSON decodes a page with jsonx, or declines it.
func (p *statusPage) DecodeJSON(body []byte) bool {
	s := jsonx.NewScanner(body)
	page := jsonx.Slice(s, func(st *MastoStatusJSON) {
		fields := [...]*string{&st.ID, &st.CreatedAt, &st.Content}
		s.Object(statusKeys, func(i int) { *fields[i] = s.String() })
	})
	if s.Declined() {
		return false
	}
	*p = page
	return true
}

// ActivityJSON mirrors the weekly activity entity (string-typed counts).
type ActivityJSON struct {
	Week          string `json:"week"`
	Statuses      string `json:"statuses"`
	Logins        string `json:"logins"`
	Registrations string `json:"registrations"`
}

// Lookup resolves an account by username on a domain.
func (m *MastodonClient) Lookup(ctx context.Context, domain, username string) (*MastoAccountJSON, error) {
	var acc MastoAccountJSON
	u := "https://" + domain + "/api/v1/accounts/lookup?acct=" + url.QueryEscape(username)
	if err := m.C.GetJSON(ctx, u, &acc); err != nil {
		return nil, err
	}
	return &acc, nil
}

// Statuses drains an account's statuses via max_id pagination: each
// page's last status ID is the next page's max_id.
func (m *MastodonClient) Statuses(ctx context.Context, domain, accountID string) ([]MastoStatusJSON, error) {
	base := "https://" + domain + "/api/v1/accounts/" + url.PathEscape(accountID) + "/statuses?limit=40"
	return httpkit.Paginate(ctx, func(ctx context.Context, maxID string) (httpkit.Page[MastoStatusJSON], error) {
		u := base
		if maxID != "" {
			u += "&max_id=" + maxID
		}
		var page statusPage
		if err := m.C.GetJSON(ctx, u, &page); err != nil || len(page) == 0 {
			return httpkit.Page[MastoStatusJSON]{}, err
		}
		return httpkit.Page[MastoStatusJSON]{Items: page, Next: page[len(page)-1].ID}, nil
	})
}

// Following drains an account's followees via offset cursors, carried
// between pages as decimal strings.
func (m *MastodonClient) Following(ctx context.Context, domain, accountID string) ([]MastoAccountJSON, error) {
	return httpkit.Paginate(ctx, func(ctx context.Context, next string) (httpkit.Page[MastoAccountJSON], error) {
		// The first page's token is "", which reads as offset 0; every
		// later token is one this function made.
		offset, _ := strconv.Atoi(next)
		u := fmt.Sprintf("https://%s/api/v1/accounts/%s/following?limit=80&max_id=%d", domain, url.PathEscape(accountID), offset)
		var page []MastoAccountJSON
		if err := m.C.GetJSON(ctx, u, &page); err != nil || len(page) == 0 {
			return httpkit.Page[MastoAccountJSON]{}, err
		}
		return httpkit.Page[MastoAccountJSON]{Items: page, Next: strconv.Itoa(offset + 80)}, nil
	})
}

// Activity fetches the weekly activity series.
func (m *MastodonClient) Activity(ctx context.Context, domain string) ([]ActivityJSON, error) {
	var out []ActivityJSON
	if err := m.C.GetJSON(ctx, "https://"+domain+"/api/v1/instance/activity", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// IndexClient wraps the instances.social-style index.
type IndexClient struct {
	Base string
	C    *httpkit.Client
}

// IndexedInstance is one index row.
type IndexedInstance struct {
	Name     string `json:"name"`
	Users    int    `json:"users"`
	Statuses int    `json:"statuses"`
	Up       bool   `json:"up"`
}

// List fetches the complete instance index.
func (i *IndexClient) List(ctx context.Context) ([]IndexedInstance, error) {
	var resp struct {
		Instances []IndexedInstance `json:"instances"`
	}
	if err := i.C.GetJSON(ctx, i.Base+"/api/1.0/instances/list?count=0", &resp); err != nil {
		return nil, err
	}
	return resp.Instances, nil
}

// PerspectiveClient scores text toxicity over HTTP, speaking toxsvc's
// wire shape through the crawl's shared client: toxsvc.MarshalRequest
// writes each request body, and the reply decodes itself into a
// toxsvc.Response (see httpkit.SelfDecoder). encoding/json decodes only
// a reply that decoder declines.
type PerspectiveClient struct {
	Base string
	C    *httpkit.Client
}

// Score returns the TOXICITY summary score of text. A reply without
// that score is an error, like a failed exchange.
func (p *PerspectiveClient) Score(ctx context.Context, text string) (float64, error) {
	var out toxsvc.Response
	if err := p.C.PostJSON(ctx, p.Base+toxsvc.Path, toxsvc.MarshalRequest(text), &out); err != nil {
		return 0, err
	}
	if out.AttributeScores.Toxicity == nil {
		return 0, fmt.Errorf("crawler: %s replied without a TOXICITY score", p.Base)
	}
	return out.AttributeScores.Toxicity.SummaryScore.Value, nil
}

// parseUnix converts a unix-seconds string to a time.
func parseUnix(s string) (time.Time, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, err
	}
	return time.Unix(v, 0).UTC(), nil
}
