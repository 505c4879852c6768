package birdsite

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"flock/internal/ids"
	"flock/internal/world"
)

// API DTOs, shaped like the Twitter v2 payloads the crawler parses.

// TweetDTO is one tweet object.
type TweetDTO struct {
	ID        string `json:"id"`
	Text      string `json:"text"`
	AuthorID  string `json:"author_id"`
	CreatedAt string `json:"created_at"`
	Source    string `json:"source"`
}

// UserDTO is one user object with the §3.1 metadata fields.
type UserDTO struct {
	ID            string `json:"id"`
	Name          string `json:"name"`
	Username      string `json:"username"`
	Description   string `json:"description"`
	Location      string `json:"location,omitempty"`
	URL           string `json:"url,omitempty"`
	Verified      bool   `json:"verified"`
	Protected     bool   `json:"protected"`
	CreatedAt     string `json:"created_at"`
	PinnedTweetID string `json:"pinned_tweet_id,omitempty"`
	PublicMetrics struct {
		Followers int `json:"followers_count"`
		Following int `json:"following_count"`
		Tweets    int `json:"tweet_count"`
	} `json:"public_metrics"`
}

// Meta carries pagination state.
type Meta struct {
	ResultCount int    `json:"result_count"`
	NextToken   string `json:"next_token,omitempty"`
}

// SearchResponse is the /2/tweets/search/all payload.
type SearchResponse struct {
	Data []TweetDTO `json:"data"`
	Meta Meta       `json:"meta"`
}

// UsersResponse is the /2/users/:id/following payload.
type UsersResponse struct {
	Data []UserDTO `json:"data"`
	Meta Meta      `json:"meta"`
}

// UserResponse wraps a single user lookup.
type UserResponse struct {
	Data *UserDTO `json:"data,omitempty"`
	Errs []APIErr `json:"errors,omitempty"`
}

// APIErr is a v2-style error entry.
type APIErr struct {
	Title  string `json:"title"`
	Detail string `json:"detail"`
	Type   string `json:"type"`
}

const timeLayout = time.RFC3339

// maxPageSize caps max_results like the real API.
const maxPageSize = 500

// Handler returns the HTTP handler for the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /2/tweets/search/all", s.handleSearch)
	mux.HandleFunc("GET /2/users/by/username/{username}", s.handleUserByUsername)
	mux.HandleFunc("GET /2/users/{id}", s.handleUserByID)
	mux.HandleFunc("GET /2/users/{id}/tweets", s.handleTimeline)
	mux.HandleFunc("GET /2/users/{id}/following", s.handleFollowing)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Service) userDTO(u *world.User) *UserDTO {
	dto := &UserDTO{
		ID:          u.TwitterID.String(),
		Name:        u.DisplayName,
		Username:    u.Username,
		Verified:    u.Verified,
		Protected:   u.Protected,
		CreatedAt:   u.TwitterCreatedAt.UTC().Format(timeLayout),
		Description: s.bioFor(u),
	}
	dto.PublicMetrics.Followers = s.w.Graph.InDegree(u.ID)
	dto.PublicMetrics.Following = s.w.Graph.OutDegree(u.ID)
	dto.PublicMetrics.Tweets = len(s.w.TweetsByUser[u.ID])
	return dto
}

// bioFor renders the user's profile description; migrated users with
// HandleInBio expose their Mastodon handle here (§3.1's first and most
// reliable match source).
func (s *Service) bioFor(u *world.User) string {
	base := fmt.Sprintf("%s. posting about %s.", u.DisplayName, u.Topic)
	if u.Migrated && u.HandleInBio {
		domain := s.w.Instances[u.FinalInstance()].Domain
		if u.ID%2 == 0 {
			return base + " " + u.Handle(domain)
		}
		return base + " https://" + domain + "/@" + u.MastodonUsername
	}
	return base
}

func (s *Service) lookupByID(idStr string) *world.User {
	return s.byID[idStr]
}

func (s *Service) handleSearch(w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	rawQ := qs.Get("query")
	if rawQ == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"title": "missing query"})
		return
	}
	start, end, err := timeWindow(qs.Get("start_time"), qs.Get("end_time"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"title": err.Error()})
		return
	}
	limit := pageSize(qs.Get("max_results"), 100)

	positions := s.search(parseQuery(rawQ), start, end)
	// Cursor: index into positions, newest-first like the real API.
	cursor := 0
	if tok := qs.Get("next_token"); tok != "" {
		cursor, err = strconv.Atoi(tok)
		if err != nil || cursor < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"title": "invalid next_token"})
			return
		}
	}
	resp := SearchResponse{Data: []TweetDTO{}}
	for i := len(positions) - 1 - cursor; i >= 0 && len(resp.Data) < limit; i-- {
		ref := s.tweets[positions[i]]
		tw := s.get(ref)
		u := s.w.Users[ref.UserID]
		if u.Deleted || u.Suspended {
			// Gone accounts drop out of search results. Protected users
			// stay: they locked down after posting publicly, which is
			// how the paper could map users whose later timeline crawl
			// failed with "protected" (§3.2).
			cursor++
			continue
		}
		resp.Data = append(resp.Data, TweetDTO{
			ID:        tw.ID.String(),
			Text:      tw.Text,
			AuthorID:  u.TwitterID.String(),
			CreatedAt: tw.Time.UTC().Format(timeLayout),
			Source:    tw.Source,
		})
		cursor++
	}
	resp.Meta.ResultCount = len(resp.Data)
	if cursor < len(positions) {
		resp.Meta.NextToken = strconv.Itoa(cursor)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleUserByUsername(w http.ResponseWriter, r *http.Request) {
	u, ok := s.byUsername[strings.ToLower(r.PathValue("username"))]
	if !ok || u.Deleted {
		writeJSON(w, http.StatusNotFound, UserResponse{Errs: []APIErr{{Title: "Not Found Error", Detail: "user not found", Type: "https://api.twitter.com/2/problems/resource-not-found"}}})
		return
	}
	if u.Suspended {
		writeJSON(w, http.StatusForbidden, UserResponse{Errs: []APIErr{{Title: "Forbidden", Detail: "user is suspended", Type: "https://api.twitter.com/2/problems/suspended"}}})
		return
	}
	writeJSON(w, http.StatusOK, UserResponse{Data: s.userDTO(u)})
}

func (s *Service) handleUserByID(w http.ResponseWriter, r *http.Request) {
	u := s.lookupByID(r.PathValue("id"))
	if u == nil || u.Deleted {
		writeJSON(w, http.StatusNotFound, UserResponse{Errs: []APIErr{{Title: "Not Found Error", Type: "https://api.twitter.com/2/problems/resource-not-found"}}})
		return
	}
	if u.Suspended {
		writeJSON(w, http.StatusForbidden, UserResponse{Errs: []APIErr{{Title: "Forbidden", Detail: "user is suspended", Type: "https://api.twitter.com/2/problems/suspended"}}})
		return
	}
	writeJSON(w, http.StatusOK, UserResponse{Data: s.userDTO(u)})
}

func (s *Service) handleTimeline(w http.ResponseWriter, r *http.Request) {
	u := s.lookupByID(r.PathValue("id"))
	if u == nil || u.Deleted {
		writeJSON(w, http.StatusNotFound, UserResponse{Errs: []APIErr{{Title: "Not Found Error", Type: "https://api.twitter.com/2/problems/resource-not-found"}}})
		return
	}
	if u.Suspended {
		writeJSON(w, http.StatusForbidden, UserResponse{Errs: []APIErr{{Title: "Forbidden", Detail: "user is suspended", Type: "https://api.twitter.com/2/problems/suspended"}}})
		return
	}
	if u.Protected {
		writeJSON(w, http.StatusUnauthorized, UserResponse{Errs: []APIErr{{Title: "Authorization Error", Detail: "tweets are protected", Type: "https://api.twitter.com/2/problems/not-authorized-for-resource"}}})
		return
	}
	qs := r.URL.Query()
	start, end, err := timeWindow(qs.Get("start_time"), qs.Get("end_time"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"title": err.Error()})
		return
	}
	limit := pageSize(qs.Get("max_results"), 100)
	timeline := s.w.TweetsByUser[u.ID]

	// max_id-style pagination via pagination_token = last seen tweet ID;
	// timeline is served newest-first.
	var beforeID ids.Snowflake = ^ids.Snowflake(0) >> 1
	if tok := qs.Get("pagination_token"); tok != "" {
		beforeID, err = ids.Parse(tok)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"title": "invalid pagination_token"})
			return
		}
	}
	resp := SearchResponse{Data: []TweetDTO{}}
	var next string
	author := u.TwitterID.String()
	for i := len(timeline) - 1; i >= 0; i-- {
		tw := &timeline[i]
		if tw.ID >= beforeID {
			continue
		}
		if tw.Time.Before(start) || !tw.Time.Before(end) {
			continue
		}
		if len(resp.Data) >= limit {
			next = resp.Data[len(resp.Data)-1].ID
			break
		}
		resp.Data = append(resp.Data, TweetDTO{
			ID:        tw.ID.String(),
			Text:      tw.Text,
			AuthorID:  author,
			CreatedAt: tw.Time.UTC().Format(timeLayout),
			Source:    tw.Source,
		})
	}
	resp.Meta.ResultCount = len(resp.Data)
	resp.Meta.NextToken = next
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleFollowing(w http.ResponseWriter, r *http.Request) {
	u := s.lookupByID(r.PathValue("id"))
	if u == nil || u.Deleted {
		writeJSON(w, http.StatusNotFound, UserResponse{Errs: []APIErr{{Title: "Not Found Error", Type: "https://api.twitter.com/2/problems/resource-not-found"}}})
		return
	}
	if u.Suspended {
		writeJSON(w, http.StatusForbidden, UserResponse{Errs: []APIErr{{Title: "Forbidden", Type: "https://api.twitter.com/2/problems/suspended"}}})
		return
	}
	qs := r.URL.Query()
	limit := pageSize(qs.Get("max_results"), 1000)
	followees := s.w.Graph.Followees(u.ID)
	offset := 0
	if tok := qs.Get("pagination_token"); tok != "" {
		var err error
		offset, err = strconv.Atoi(tok)
		if err != nil || offset < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"title": "invalid pagination_token"})
			return
		}
	}
	resp := UsersResponse{Data: []UserDTO{}}
	for i := offset; i < len(followees) && len(resp.Data) < limit; i++ {
		resp.Data = append(resp.Data, *s.userDTO(s.w.Users[int(followees[i])]))
		offset = i + 1
	}
	resp.Meta.ResultCount = len(resp.Data)
	if offset < len(followees) {
		resp.Meta.NextToken = strconv.Itoa(offset)
	}
	writeJSON(w, http.StatusOK, resp)
}

// timeWindow parses RFC3339 start/end params with open defaults.
func timeWindow(startS, endS string) (time.Time, time.Time, error) {
	start := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	if startS != "" {
		t, err := time.Parse(timeLayout, startS)
		if err != nil {
			return start, end, fmt.Errorf("invalid start_time")
		}
		start = t
	}
	if endS != "" {
		t, err := time.Parse(timeLayout, endS)
		if err != nil {
			return start, end, fmt.Errorf("invalid end_time")
		}
		end = t
	}
	return start, end, nil
}

// pageSize parses max_results with a default and the API cap.
func pageSize(s string, def int) int {
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return def
	}
	if n > maxPageSize {
		return maxPageSize
	}
	return n
}
