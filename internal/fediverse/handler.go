package fediverse

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"flock/internal/world"
)

// AccountDTO mirrors the Mastodon account entity fields the crawler
// reads.
type AccountDTO struct {
	ID             string      `json:"id"`
	Username       string      `json:"username"`
	Acct           string      `json:"acct"`
	DisplayName    string      `json:"display_name"`
	Note           string      `json:"note"`
	URL            string      `json:"url"`
	CreatedAt      string      `json:"created_at"`
	FollowersCount int         `json:"followers_count"`
	FollowingCount int         `json:"following_count"`
	StatusesCount  int         `json:"statuses_count"`
	Moved          *AccountDTO `json:"moved,omitempty"`
	// AlsoKnownAs lists prior account URLs (the alias a Move requires),
	// letting crawlers walk a migration backwards.
	AlsoKnownAs []string `json:"also_known_as,omitempty"`
}

// StatusDTO mirrors the Mastodon status entity.
type StatusDTO struct {
	ID        string     `json:"id"`
	CreatedAt string     `json:"created_at"`
	Content   string     `json:"content"`
	URL       string     `json:"url"`
	Account   AccountDTO `json:"account"`
}

// ActivityDTO is one weekly bucket of /api/v1/instance/activity. Counts
// are strings, exactly like Mastodon's API.
type ActivityDTO struct {
	Week          string `json:"week"`
	Statuses      string `json:"statuses"`
	Logins        string `json:"logins"`
	Registrations string `json:"registrations"`
}

// InstanceDTO is the /api/v1/instance payload subset.
type InstanceDTO struct {
	URI         string `json:"uri"`
	Title       string `json:"title"`
	Description string `json:"short_description"`
	Stats       struct {
		UserCount   int `json:"user_count"`
		StatusCount int `json:"status_count"`
		DomainCount int `json:"domain_count"`
	} `json:"stats"`
}

const timeLayout = time.RFC3339

// Handler serves all instances, dispatching on the request Host.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/instance", s.withInstance(s.handleInstance))
	mux.HandleFunc("GET /api/v1/instance/activity", s.withInstance(s.handleActivity))
	mux.HandleFunc("GET /api/v1/accounts/lookup", s.withInstance(s.handleLookup))
	mux.HandleFunc("GET /api/v1/accounts/{id}", s.withInstance(s.handleAccount))
	mux.HandleFunc("GET /api/v1/accounts/{id}/statuses", s.withInstance(s.handleStatuses))
	mux.HandleFunc("GET /api/v1/accounts/{id}/following", s.withInstance(s.handleFollowing))
	mux.HandleFunc("GET /api/v1/timelines/public", s.withInstance(s.handleTimeline))
	return mux
}

type instHandler func(w http.ResponseWriter, r *http.Request, st *instanceState)

// withInstance resolves the Host header to an instance.
func (s *Service) withInstance(h instHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		host := strings.ToLower(r.Host)
		if i := strings.LastIndexByte(host, ':'); i >= 0 {
			host = host[:i]
		}
		st, ok := s.byHost[host]
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown instance " + host})
			return
		}
		h(w, r, st)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// accountDTO renders an account, following moved pointers one level.
func (s *Service) accountDTO(acc *Account, withMoved bool) AccountDTO {
	u := acc.User
	domain := s.w.Instances[acc.Instance].Domain
	dto := AccountDTO{
		ID:          acc.LocalID,
		Username:    u.MastodonUsername,
		Acct:        u.MastodonUsername,
		DisplayName: u.DisplayName,
		Note:        "<p>" + html.EscapeString(fmt.Sprintf("%s — on the fediverse since %s", u.DisplayName, acc.CreatedAt.Format("Jan 2006"))) + "</p>",
		URL:         "https://" + domain + "/@" + u.MastodonUsername,
		CreatedAt:   acc.CreatedAt.UTC().Format(timeLayout),
	}
	dto.FollowersCount = len(u.MastodonFollowers) + u.NativeFollowers
	dto.FollowingCount = len(u.MastodonFollowees) + u.NativeFollowees
	dto.StatusesCount = len(s.w.StatusesByUser[u.ID])
	if withMoved && acc.MovedTo != nil {
		moved := s.accountDTO(acc.MovedTo, false)
		dto.Moved = &moved
	}
	if acc.MovedFrom != nil {
		fromDomain := s.w.Instances[acc.MovedFrom.Instance].Domain
		dto.AlsoKnownAs = append(dto.AlsoKnownAs,
			"https://"+fromDomain+"/@"+acc.MovedFrom.User.MastodonUsername)
	}
	return dto
}

// remoteAcct renders the acct field as seen from viewing instance:
// "user" for locals, "user@domain" for remotes.
func remoteAcct(dto *AccountDTO, accountInst, viewingInst int, domain string) {
	if accountInst != viewingInst {
		dto.Acct = dto.Username + "@" + domain
	}
}

func (s *Service) handleInstance(w http.ResponseWriter, _ *http.Request, st *instanceState) {
	migrantsHere := 0
	for _, acc := range st.byUsername {
		if acc.MovedTo == nil {
			migrantsHere++
		}
	}
	dto := InstanceDTO{
		URI:         st.inst.Domain,
		Title:       st.inst.Domain,
		Description: fmt.Sprintf("a %s mastodon server", st.inst.Category),
	}
	dto.Stats.UserCount = st.inst.TotalUsers(migrantsHere)
	dto.Stats.StatusCount = len(st.localStatuses) + st.inst.NativeUsers*40
	dto.Stats.DomainCount = 1 + len(s.states)/2
	writeJSON(w, http.StatusOK, dto)
}

func (s *Service) handleActivity(w http.ResponseWriter, _ *http.Request, st *instanceState) {
	series := s.w.Activity[st.inst.ID]
	// Mastodon returns the last 12 weeks, most recent first.
	out := make([]ActivityDTO, 0, len(series))
	for i := len(series) - 1; i >= 0; i-- {
		wk := series[i]
		out = append(out, ActivityDTO{
			Week:          strconv.FormatInt(wk.WeekStart.Unix(), 10),
			Statuses:      strconv.Itoa(wk.Statuses),
			Logins:        strconv.Itoa(wk.Logins),
			Registrations: strconv.Itoa(wk.Registrations),
		})
		if len(out) == 12 {
			break
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleLookup(w http.ResponseWriter, r *http.Request, st *instanceState) {
	acct := strings.ToLower(strings.TrimPrefix(r.URL.Query().Get("acct"), "@"))
	if i := strings.IndexByte(acct, '@'); i >= 0 {
		// user@domain form: only resolvable locally if domain matches.
		if acct[i+1:] != strings.ToLower(st.inst.Domain) {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "Record not found"})
			return
		}
		acct = acct[:i]
	}
	acc, ok := st.byUsername[acct]
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "Record not found"})
		return
	}
	writeJSON(w, http.StatusOK, s.accountDTO(acc, true))
}

func (s *Service) handleAccount(w http.ResponseWriter, r *http.Request, st *instanceState) {
	acc, ok := st.byID[r.PathValue("id")]
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "Record not found"})
		return
	}
	writeJSON(w, http.StatusOK, s.accountDTO(acc, true))
}

func (s *Service) handleStatuses(w http.ResponseWriter, r *http.Request, st *instanceState) {
	acc, ok := st.byID[r.PathValue("id")]
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "Record not found"})
		return
	}
	qs := r.URL.Query()
	limit := clampLimit(qs.Get("limit"), 20, 40)
	var maxID uint64 = ^uint64(0)
	if v := qs.Get("max_id"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid max_id"})
			return
		}
		maxID = id
	}
	// Statuses by this user on THIS instance, newest first. They share
	// one author, so the page renders the account once.
	all := s.w.StatusesByUser[acc.User.ID]
	account := s.accountDTO(acc, false)
	out := []StatusDTO{}
	for i := len(all) - 1; i >= 0 && len(out) < limit; i-- {
		status := &all[i]
		if status.InstanceID != acc.Instance {
			continue
		}
		if uint64(status.ID) >= maxID {
			continue
		}
		out = append(out, s.statusDTO(status, acc, account))
	}
	writeJSON(w, http.StatusOK, out)
}

// statusDTO renders a status by acc, whose rendering is account.
func (s *Service) statusDTO(status *world.Status, acc *Account, account AccountDTO) StatusDTO {
	id := status.ID.String()
	domain := s.w.Instances[status.InstanceID].Domain
	return StatusDTO{
		ID:        id,
		CreatedAt: status.Time.UTC().Format(timeLayout),
		Content:   "<p>" + html.EscapeString(status.Text) + "</p>",
		URL:       "https://" + domain + "/@" + acc.User.MastodonUsername + "/" + id,
		Account:   account,
	}
}

func (s *Service) handleFollowing(w http.ResponseWriter, r *http.Request, st *instanceState) {
	acc, ok := st.byID[r.PathValue("id")]
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "Record not found"})
		return
	}
	qs := r.URL.Query()
	limit := clampLimit(qs.Get("limit"), 40, 80)
	offset := 0
	if v := qs.Get("max_id"); v != "" {
		// We use max_id as a plain offset cursor for simplicity; Mastodon
		// uses opaque Link headers, which the client treats as opaque
		// anyway.
		o, err := strconv.Atoi(v)
		if err != nil || o < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid max_id"})
			return
		}
		offset = o
	}
	followees := acc.User.MastodonFollowees
	out := []AccountDTO{}
	end := offset + limit
	for i := offset; i < len(followees) && i < end; i++ {
		fu := s.w.Users[followees[i]]
		fInst := fu.FinalInstance()
		fAcc := s.accounts[[2]int{fInst, fu.ID}]
		if fAcc == nil {
			continue
		}
		dto := s.accountDTO(fAcc, false)
		remoteAcct(&dto, fInst, acc.Instance, s.w.Instances[fInst].Domain)
		out = append(out, dto)
	}
	if end < len(followees) {
		w.Header().Set("Link", fmt.Sprintf(`<https://%s/api/v1/accounts/%s/following?max_id=%d>; rel="next"`, st.inst.Domain, acc.LocalID, end))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleTimeline(w http.ResponseWriter, r *http.Request, st *instanceState) {
	qs := r.URL.Query()
	localOnly := qs.Get("local") == "true"
	limit := clampLimit(qs.Get("limit"), 20, 40)
	var maxID uint64 = ^uint64(0)
	if v := qs.Get("max_id"); v != "" {
		id, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid max_id"})
			return
		}
		maxID = id
	}
	out := []StatusDTO{}
	collect := func(refs []statusRef) {
		for i := len(refs) - 1; i >= 0 && len(out) < limit; i-- {
			status := s.status(refs[i])
			if uint64(status.ID) >= maxID {
				continue
			}
			owner := s.w.Users[status.UserID]
			acc := s.accounts[[2]int{status.InstanceID, owner.ID}]
			if acc == nil {
				continue
			}
			dto := s.statusDTO(status, acc, s.accountDTO(acc, false))
			remoteAcct(&dto.Account, status.InstanceID, st.inst.ID, s.w.Instances[status.InstanceID].Domain)
			out = append(out, dto)
		}
	}
	if localOnly {
		collect(st.localStatuses)
	} else {
		// Federated view: merge local + subscribed remote, newest first.
		merged := make([]statusRef, 0, len(st.localStatuses)+len(st.federated))
		merged = append(merged, st.localStatuses...)
		merged = append(merged, st.federated...)
		sortRefs(s, merged)
		collect(merged)
	}
	writeJSON(w, http.StatusOK, out)
}

func sortRefs(s *Service, refs []statusRef) {
	sortSlice := func(a, b statusRef) bool {
		sa, sb := s.status(a), s.status(b)
		if !sa.Time.Equal(sb.Time) {
			return sa.Time.Before(sb.Time)
		}
		return sa.ID < sb.ID
	}
	sort.SliceStable(refs, func(i, j int) bool { return sortSlice(refs[i], refs[j]) })
}

func clampLimit(v string, def, max int) int {
	if v == "" {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return def
	}
	if n > max {
		return max
	}
	return n
}
