// Per-host circuit breaking and health tracking.
//
// The paper's crawlers skipped dead instances rather than hammering them
// (§3.2: 11.58% of Mastodon timeline crawls hit downed hosts). Without a
// breaker every request to a dead host burns the full retry budget —
// MaxAttempts dials, each with backoff — multiplied by every account on
// that instance. The HealthRegistry gives each host a classic
// closed/open/half-open breaker plus an error taxonomy (dial failures,
// timeouts, transport resets, 5xx, 429), so a host that keeps failing is
// quarantined after a handful of observations and revisited only by a
// single cooldown probe.
package httpkit

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"flock/internal/vclock"
)

// ErrCircuitOpen is returned (wrapped in *HostError) when a request is
// refused because the target host's breaker is open.
var ErrCircuitOpen = errors.New("httpkit: circuit open")

// HostError attaches the refusing host to ErrCircuitOpen.
type HostError struct {
	Host string
	Err  error
}

func (e *HostError) Error() string { return fmt.Sprintf("httpkit: host %s: %v", e.Host, e.Err) }
func (e *HostError) Unwrap() error { return e.Err }

// ErrorKind is the failure taxonomy the registry tracks per host.
type ErrorKind string

const (
	// KindDial: the connection could not be established.
	KindDial ErrorKind = "dial"
	// KindTimeout: the request or connection timed out.
	KindTimeout ErrorKind = "timeout"
	// KindConn: the connection failed mid-flight (reset, EOF).
	KindConn ErrorKind = "conn"
	// Kind5xx: the host answered with a server error.
	Kind5xx ErrorKind = "5xx"
	// Kind429: the host rate-limited us. Counts as alive.
	Kind429 ErrorKind = "429"
	// KindOther: terminal client-side statuses (4xx) and the rest.
	KindOther ErrorKind = "other"
)

// trips reports whether a failure kind counts toward opening the breaker.
// 429 means the host is alive and pacing us; 4xx means we asked a live
// host a bad question — neither is evidence of a dead host.
func (k ErrorKind) trips() bool {
	switch k {
	case KindDial, KindTimeout, KindConn, Kind5xx:
		return true
	}
	return false
}

// BreakerState is the classic three-state circuit.
type BreakerState string

const (
	BreakerClosed   BreakerState = "closed"
	BreakerOpen     BreakerState = "open"
	BreakerHalfOpen BreakerState = "half-open"
)

// BreakerPolicy tunes the per-host circuit breakers.
type BreakerPolicy struct {
	// FailureThreshold is the consecutive tripping failures that open the
	// circuit (default 5).
	FailureThreshold int
	// Cooldown is how long an open circuit waits before admitting one
	// half-open probe (default 30s).
	Cooldown time.Duration
	// QuarantineAfter marks a host quarantined once its breaker has
	// opened this many times since its last success (default 3).
	// Quarantine is advisory — the breaker still probes — but crawl
	// planners can skip quarantined hosts entirely, as the paper's
	// crawlers skipped dead instances.
	QuarantineAfter int
	// Probation is how long after its last failure a quarantined host
	// stays skip-worthy (default 1h). Past that age the host decays to
	// probation: HostHealth.Quarantined turns false and
	// HostHealth.Probation true, telling planners to probe it one
	// exchange at a time instead of banning it forever. The age is read
	// through the registry's clock (vclock.NowFunc), so persisted
	// quarantine state replays correctly under a virtual clock.
	Probation time.Duration
}

// DefaultBreaker is a crawl-appropriate policy.
var DefaultBreaker = BreakerPolicy{FailureThreshold: 5, Cooldown: 30 * time.Second, QuarantineAfter: 3, Probation: time.Hour}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = DefaultBreaker.FailureThreshold
	}
	if p.Cooldown <= 0 {
		p.Cooldown = DefaultBreaker.Cooldown
	}
	if p.QuarantineAfter <= 0 {
		p.QuarantineAfter = DefaultBreaker.QuarantineAfter
	}
	if p.Probation <= 0 {
		p.Probation = DefaultBreaker.Probation
	}
	return p
}

// HostHealth is a snapshot of one host's breaker and error taxonomy.
// It is also the registry's persistence schema (Snapshot/ImportHealth):
// the JSON form rides inside crawl checkpoints, so field tags are part
// of the checkpoint's v2 wire format.
type HostHealth struct {
	Host        string       `json:"host"`
	State       BreakerState `json:"state"`
	ConsecFails int          `json:"consec_fails,omitempty"`
	Opens       int          `json:"opens,omitempty"` // times the breaker tripped open, cumulative
	// QuarantineOpens counts opens since the host's last success; the
	// quarantine threshold reads this, so a recovered host sheds its
	// quarantine history while Opens keeps the lifetime total.
	QuarantineOpens int  `json:"quarantine_opens,omitempty"`
	ShortCircuits   int  `json:"short_circuits,omitempty"` // requests refused while open
	Quarantined     bool `json:"quarantined,omitempty"`
	// Probation is true when the host reached the quarantine threshold
	// but its last failure is older than the policy's Probation age:
	// no longer skip-worthy, but planners should re-admit it one
	// exchange at a time rather than with a full fan-out burst.
	Probation   bool              `json:"probation,omitempty"`
	Counts      map[ErrorKind]int `json:"counts,omitempty"`
	Successes   int               `json:"successes,omitempty"`
	LastFailure time.Time         `json:"last_failure"`
}

// hostState is the live breaker bookkeeping for one host.
type hostState struct {
	state       BreakerState
	consecFails int
	opens       int
	quarOpens   int // opens since the last success (quarantine threshold input)
	shorts      int
	counts      map[ErrorKind]int
	successes   int
	openedAt    time.Time
	probing     bool
	lastFailure time.Time
}

// HealthRegistry tracks per-host health and gates requests through
// circuit breakers. It is safe for concurrent use.
type HealthRegistry struct {
	mu     sync.Mutex
	policy BreakerPolicy
	hosts  map[string]*hostState
	now    vclock.NowFunc
}

// NewHealthRegistry builds a registry with the given policy (zero fields
// take defaults).
func NewHealthRegistry(policy BreakerPolicy) *HealthRegistry {
	return &HealthRegistry{
		policy: policy.withDefaults(),
		hosts:  make(map[string]*hostState),
		now:    vclock.Wall,
	}
}

func (r *HealthRegistry) host(host string) *hostState {
	h, ok := r.hosts[host]
	if !ok {
		h = &hostState{state: BreakerClosed, counts: make(map[ErrorKind]int)}
		r.hosts[host] = h
	}
	return h
}

// Allow reports whether a request to host may proceed. While the breaker
// is open it returns a *HostError wrapping ErrCircuitOpen; after the
// cooldown it admits exactly one half-open probe at a time.
func (r *HealthRegistry) Allow(host string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.host(host)
	switch h.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if r.now().Sub(h.openedAt) >= r.policy.Cooldown {
			h.state = BreakerHalfOpen
			h.probing = true
			return nil
		}
		h.shorts++
		return &HostError{Host: host, Err: ErrCircuitOpen}
	default: // half-open
		if h.probing {
			h.shorts++
			return &HostError{Host: host, Err: ErrCircuitOpen}
		}
		h.probing = true
		return nil
	}
}

// refusesFor reports whether host's breaker is open and will still be
// open d from now, so that Allow would then refuse the host. A half-open
// breaker reports false: the probe in flight may close it.
func (r *HealthRegistry) refusesFor(host string, d time.Duration) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hosts[host]
	return ok && h.state == BreakerOpen && r.now().Add(d).Before(h.openedAt.Add(r.policy.Cooldown))
}

// State returns host's current breaker state without consuming a
// half-open probe slot (unlike Allow). Hedging consults it before
// spending budget on a host the breaker is already rationing.
func (r *HealthRegistry) State(host string) BreakerState {
	if r == nil {
		return BreakerClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hosts[host]
	if !ok {
		return BreakerClosed
	}
	return h.state
}

// ReportSuccess records a successful exchange with host, closing a
// half-open breaker and resetting failure streaks.
func (r *HealthRegistry) ReportSuccess(host string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.host(host)
	h.successes++
	h.consecFails = 0
	// A successful exchange proves the host is back: drop the
	// quarantine history (the cumulative opens counter stays for
	// reporting) so planners stop skipping or probing it.
	h.quarOpens = 0
	h.probing = false
	h.state = BreakerClosed
}

// ReportFailure records a failed exchange of the given kind. Kinds that
// evidence a dead host advance the breaker; a half-open probe failure
// reopens immediately.
func (r *HealthRegistry) ReportFailure(host string, kind ErrorKind) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.host(host)
	h.counts[kind]++
	h.lastFailure = r.now()
	if !kind.trips() {
		if kind == Kind429 {
			// Rate limiting proves the host is alive.
			h.consecFails = 0
		}
		if h.state == BreakerHalfOpen {
			h.probing = false
		}
		return
	}
	h.consecFails++
	switch h.state {
	case BreakerHalfOpen:
		h.state = BreakerOpen
		h.openedAt = r.now()
		h.opens++
		h.quarOpens++
		h.probing = false
	case BreakerClosed:
		if h.consecFails >= r.policy.FailureThreshold {
			h.state = BreakerOpen
			h.openedAt = r.now()
			h.opens++
			h.quarOpens++
		}
	}
}

// verdictLocked is the quarantine rule; caller holds r.mu. Quarantine
// decays with age: a host over the threshold is skip-worthy while its
// last failure is fresher than the probation window, and merely on
// probation (probed one exchange at a time) once it is older. Without
// the decay a host that died once would be banned across every future
// resumed run.
func (r *HealthRegistry) verdictLocked(h *hostState) (quarantined, probation bool) {
	overThreshold := h.quarOpens >= r.policy.QuarantineAfter
	quarantined = overThreshold && r.now().Sub(h.lastFailure) < r.policy.Probation
	return quarantined, overThreshold && !quarantined
}

// snapshotLocked builds a HostHealth copy; caller holds r.mu.
func (r *HealthRegistry) snapshotLocked(host string, h *hostState) HostHealth {
	counts := make(map[ErrorKind]int, len(h.counts))
	for k, v := range h.counts {
		counts[k] = v
	}
	quarantined, probation := r.verdictLocked(h)
	return HostHealth{
		Host:            host,
		State:           h.state,
		ConsecFails:     h.consecFails,
		Opens:           h.opens,
		QuarantineOpens: h.quarOpens,
		ShortCircuits:   h.shorts,
		Quarantined:     quarantined,
		Probation:       probation,
		Counts:          counts,
		Successes:       h.successes,
		LastFailure:     h.lastFailure,
	}
}

// Health returns the snapshot for one host (zero value if never seen).
func (r *HealthRegistry) Health(host string) HostHealth {
	if r == nil {
		return HostHealth{Host: host, State: BreakerClosed}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hosts[host]
	if !ok {
		return HostHealth{Host: host, State: BreakerClosed, Counts: map[ErrorKind]int{}}
	}
	return r.snapshotLocked(host, h)
}

// Verdict returns host's Quarantined and Probation, as Health would,
// without building its snapshot. A host never seen is neither.
func (r *HealthRegistry) Verdict(host string) (quarantined, probation bool) {
	if r == nil {
		return false, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hosts[host]
	if !ok {
		return false, false
	}
	return r.verdictLocked(h)
}

// Snapshot returns every tracked host's health, sorted by host. It is
// the registry's persisted form: ImportHealth on a fresh registry
// reconstructs breaker positions, quarantine ages and the error taxonomy
// from it.
func (r *HealthRegistry) Snapshot() []HostHealth {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]HostHealth, 0, len(r.hosts))
	for host, h := range r.hosts {
		out = append(out, r.snapshotLocked(host, h))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// ImportHealth seeds the registry from a persisted Snapshot,
// replacing any existing state for the same hosts. Open and half-open
// breakers import as open with the cooldown anchored at the last
// failure, so a stale snapshot admits a half-open probe on first Allow
// while a fresh one keeps refusing. Quarantine is recomputed from the
// imported QuarantineOpens and LastFailure against the receiving
// registry's policy and clock — a snapshot older than the probation
// window therefore lands in probation, not quarantine.
func (r *HealthRegistry) ImportHealth(snap []HostHealth) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range snap {
		if h.Host == "" {
			continue
		}
		s := &hostState{
			state:       BreakerClosed,
			consecFails: h.ConsecFails,
			opens:       h.Opens,
			quarOpens:   h.QuarantineOpens,
			shorts:      h.ShortCircuits,
			successes:   h.Successes,
			lastFailure: h.LastFailure,
			counts:      make(map[ErrorKind]int, len(h.Counts)),
		}
		for k, v := range h.Counts {
			s.counts[k] = v
		}
		if h.State == BreakerOpen || h.State == BreakerHalfOpen {
			s.state = BreakerOpen
			s.openedAt = h.LastFailure
		}
		r.hosts[h.Host] = s
	}
}

// Classify maps a request outcome to the taxonomy: err from the
// transport (status 0), or a status code with err nil.
func Classify(err error, status int) ErrorKind {
	if err != nil {
		var ne net.Error
		if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
			return KindTimeout
		}
		var oe *net.OpError
		if errors.As(err, &oe) && oe.Op == "dial" {
			return KindDial
		}
		return KindConn
	}
	switch {
	case status == 429:
		return Kind429
	case status >= 500:
		return Kind5xx
	default:
		return KindOther
	}
}
