// Package indexsvc simulates the instances.social index the paper used
// to seed its crawl (§3.1: "We collect a global list of Mastodon
// instances from instances.social"). It serves the instance roster with
// the list semantics of the real API: paged listing with per-instance
// user/status counts and an up/down flag.
package indexsvc

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"

	"flock/internal/world"
)

// Host is the hostname the index binds on the fabric.
const Host = "instances.social.test"

// InstanceDTO is one row of the index listing.
type InstanceDTO struct {
	Name     string `json:"name"`
	Users    int    `json:"users"`
	Statuses int    `json:"statuses"`
	Up       bool   `json:"up"`
}

// ListResponse is the /api/1.0/instances/list payload.
type ListResponse struct {
	Instances  []InstanceDTO `json:"instances"`
	Pagination struct {
		Total    int    `json:"total"`
		NextPage string `json:"next_page,omitempty"`
	} `json:"pagination"`
}

// Service serves the index.
type Service struct {
	rows []InstanceDTO
}

// New snapshots the world's instance roster. Instances without a domain
// (unclaimed personal slots) are not listed; the real index obviously
// only lists servers that exist.
func New(w *world.World) *Service {
	migrants := make([]int, len(w.Instances))
	for _, u := range w.Migrants {
		migrants[w.Users[u].FinalInstance()]++
	}
	s := &Service{}
	for _, inst := range w.Instances {
		if inst.Domain == "" {
			continue
		}
		s.rows = append(s.rows, InstanceDTO{
			Name:     inst.Domain,
			Users:    inst.TotalUsers(migrants[inst.ID]),
			Statuses: inst.NativeUsers*40 + migrants[inst.ID]*20,
			Up:       !inst.Down,
		})
	}
	sort.Slice(s.rows, func(i, j int) bool { return s.rows[i].Users > s.rows[j].Users })
	return s
}

// Len returns the number of listed instances.
func (s *Service) Len() int { return len(s.rows) }

// Handler returns the HTTP handler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/1.0/instances/list", func(w http.ResponseWriter, r *http.Request) {
		qs := r.URL.Query()
		count := len(s.rows)
		if v := qs.Get("count"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, `{"error":"invalid count"}`, http.StatusBadRequest)
				return
			}
			if n > 0 {
				count = n
			}
		}
		offset := 0
		if v := qs.Get("page"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, `{"error":"invalid page"}`, http.StatusBadRequest)
				return
			}
			offset = n * count
		}
		var resp ListResponse
		resp.Pagination.Total = len(s.rows)
		for i := offset; i < len(s.rows) && i < offset+count; i++ {
			resp.Instances = append(resp.Instances, s.rows[i])
		}
		if offset+count < len(s.rows) {
			resp.Pagination.NextPage = strconv.Itoa(offset/count + 1)
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
	return mux
}
