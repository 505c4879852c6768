// Package fediverse simulates the federated Mastodon universe the
// paper crawled (§2, §3):
//
//   - one HTTP server per instance (dispatched by Host), each exposing
//     the Mastodon endpoints the crawl used: instance info, the weekly
//     activity endpoint, account lookup, account statuses and account
//     following, plus public timelines (local and federated)
//   - federation semantics: users registered on one instance follow
//     users on another; the local instance subscribes on their behalf, so
//     remote statuses appear in the federated timeline (§2)
//   - account moves: a user who switches instance leaves behind a
//     record pointing at the new account, which is how instance switching
//     (§5.3) is observable to a crawler
//   - the operational failure the paper hit: whole instances down at
//     crawl time (handled at the network fabric layer; see RegisterAll)
//
// Counts returned by the activity endpoint are JSON strings, matching
// Mastodon's actual (string-typed) payloads — a detail that bites every
// real fediverse crawler and is therefore worth reproducing.
package fediverse

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"flock/internal/ids"
	"flock/internal/memnet"
	"flock/internal/world"
)

// Account is one Mastodon account: a migrant on a particular instance. A
// user who switched instances has two Accounts, the first marked moved.
type Account struct {
	LocalID  string
	User     *world.User
	Instance int
	// MovedTo points at the user's account on the next instance (nil
	// unless this account was abandoned in a switch).
	MovedTo *Account
	// MovedFrom points back at the abandoned account (Mastodon's
	// also_known_as alias, which a Move requires).
	MovedFrom *Account
	// CreatedAt is the account registration time on this instance.
	CreatedAt time.Time
}

// Acct returns the local acct name (username).
func (a *Account) Acct() string { return a.User.MastodonUsername }

// instanceState is the serving state of one instance.
type instanceState struct {
	inst       *world.Instance
	byUsername map[string]*Account
	byID       map[string]*Account
	// localStatuses are statuses posted on this instance, time-ascending
	// (positions into the owning user's StatusesByUser slice).
	localStatuses []statusRef
	// federated are remote statuses subscribed through local follows.
	federated []statusRef
}

type statusRef struct {
	UserID int
	Idx    int
}

// Service owns all instance states and the shared handler.
type Service struct {
	w      *world.World
	states []*instanceState
	byHost map[string]*instanceState
	// accounts indexed by (instance, user) for cross-linking.
	accounts map[[2]int]*Account
}

// New builds the serving state from the world.
func New(w *world.World) *Service {
	s := &Service{
		w:        w,
		byHost:   make(map[string]*instanceState),
		accounts: make(map[[2]int]*Account),
	}
	for _, inst := range w.Instances {
		st := &instanceState{
			inst:       inst,
			byUsername: make(map[string]*Account),
			byID:       make(map[string]*Account),
		}
		s.states = append(s.states, st)
		if inst.Domain != "" {
			s.byHost[strings.ToLower(inst.Domain)] = st
		}
	}

	// Register accounts: first instance always; second instance if the
	// user switched, with the first account marked moved.
	nextID := make([]int, len(w.Instances))
	register := func(user *world.User, instID int, createdAt time.Time) *Account {
		st := s.states[instID]
		nextID[instID]++
		acc := &Account{
			LocalID:   fmt.Sprintf("%d", 108000000000000000+int64(instID)*1000000+int64(nextID[instID])),
			User:      user,
			Instance:  instID,
			CreatedAt: createdAt,
		}
		st.byUsername[strings.ToLower(user.MastodonUsername)] = acc
		st.byID[acc.LocalID] = acc
		s.accounts[[2]int{instID, user.ID}] = acc
		return acc
	}
	for _, uIdx := range w.Migrants {
		user := w.Users[uIdx]
		first := register(user, user.FirstInstance, user.MastodonCreatedAt)
		if user.SecondInstance >= 0 {
			second := register(user, user.SecondInstance, user.SwitchedAt)
			first.MovedTo = second
			second.MovedFrom = first
		}
	}

	// Distribute statuses to their instances.
	for _, uIdx := range w.Migrants {
		for i, status := range w.StatusesByUser[uIdx] {
			s.states[status.InstanceID].localStatuses = append(
				s.states[status.InstanceID].localStatuses, statusRef{UserID: uIdx, Idx: i})
		}
	}

	// Federation: an instance subscribes to every remote user a local
	// account follows; the remote user's statuses flow to the federated
	// timeline (§2's "union of remote statuses retrieved by all users on
	// the instance").
	for i := range s.states {
		s.buildFederated(i)
	}
	var keys []statusKey
	for _, st := range s.states {
		keys = s.sortByTime(st.localStatuses, keys)
		keys = s.sortByTime(st.federated, keys)
	}
	return s
}

func (s *Service) status(ref statusRef) *world.Status {
	return &s.w.StatusesByUser[ref.UserID][ref.Idx]
}

// statusKey is a status's sort key: its time in Unix nanoseconds and
// its ID. Time.UnixNano orders as Time.Before does for every time in
// years 1678–2262, which holds all of a world's times.
type statusKey struct {
	at  int64
	id  ids.Snowflake
	ref statusRef
}

// sortByTime sorts refs by their statuses' (Time, ID), ascending. Status
// IDs are unique, so the order is total. It builds the keys in buf and
// returns it for reuse.
func (s *Service) sortByTime(refs []statusRef, buf []statusKey) []statusKey {
	keys := buf[:0]
	for _, ref := range refs {
		st := s.status(ref)
		keys = append(keys, statusKey{st.Time.UnixNano(), st.ID, ref})
	}
	slices.SortFunc(keys, func(a, b statusKey) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, k := range keys {
		refs[i] = k.ref
	}
	return keys
}

// buildFederated collects instance i's federated timeline, unsorted.
func (s *Service) buildFederated(i int) {
	st := s.states[i]
	subscribed := map[int]bool{} // remote world-user IDs
	for _, acc := range st.byUsername {
		if acc.MovedTo != nil {
			continue // moved-away accounts no longer pull follows here
		}
		for _, f := range acc.User.MastodonFollowees {
			fu := s.w.Users[f]
			if fu.FinalInstance() != i {
				subscribed[f] = true
			}
		}
	}
	for f := range subscribed {
		for idx, status := range s.w.StatusesByUser[f] {
			if status.InstanceID != i {
				st.federated = append(st.federated, statusRef{UserID: f, Idx: idx})
			}
		}
	}
}

// RegisterAll binds every instance to the fabric. All instances start
// reachable; apply the world's outages with ApplyOutages when the
// simulated crawl reaches the timeline phase (the paper's instance
// deaths happened between discovery and timeline crawl, §3.2); an
// outage applies to the next request, like a host that stops
// answering. ctx is passed on to memnet.Fabric.Serve, which does not
// use it. It returns a stop function that unbinds every instance.
func (s *Service) RegisterAll(ctx context.Context, f *memnet.Fabric) (stop func(), err error) {
	handler := s.Handler()
	var stops []func()
	for _, st := range s.states {
		if st.inst.Domain == "" {
			continue
		}
		sf, err := f.Serve(ctx, st.inst.Domain, handler)
		if err != nil {
			for _, fn := range stops {
				fn()
			}
			return nil, err
		}
		stops = append(stops, sf)
	}
	return func() {
		for _, fn := range stops {
			fn()
		}
	}, nil
}

// ApplyOutages takes the world's down instances offline on the fabric.
func (s *Service) ApplyOutages(f *memnet.Fabric) {
	for _, st := range s.states {
		if st.inst.Down && st.inst.Domain != "" {
			f.SetDown(st.inst.Domain, true)
		}
	}
}
