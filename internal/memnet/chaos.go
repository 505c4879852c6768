// Chaos engine: seeded, deterministic failure schedules per host.
//
// The paper's crawl survived a hostile network — 11.58% of Mastodon
// timeline crawls failed because instances died mid-crawl (§3.2), and
// both platforms throttle aggressively. The chaos engine is the one
// fault injector: the fabric consults it for every request, and
// cmd/fedisim's chaos middleware for every request it serves. A
// ChaosSpec can set a single failure mode (a fixed latency, a flap
// cycle) or compose the full storm: probabilistic refusals, scripted
// down/up flap windows, latency jitter, per-request stalls, byte-rate
// throttling (slow-loris) and mid-body resets, all drawn from a
// randx-seeded stream so every chaos run is reproducible from its seed.
//
// Determinism: a Schedule decides each attempt from the request itself.
// The key is the method, the request URI and a digest of the body; the
// schedule counts the attempts it has seen of each key, and attempt n
// of key k draws every decision from one stream of (host seed, k, n).
// So a request's fate does not depend on which other requests reach the
// host first, and a crawl's dataset does not depend on its worker
// count. Flapping keeps its window shape per request: each key draws a
// phase, and its attempts walk the up/down cycle from there, so a
// request retried into a down window meets refusals in a row.
//
// Two races remain. A hedge's backup starts after its primary has
// drawn, so it takes the next attempt number, and a retry after a hedge
// fired draws one attempt later than it would have without the hedge.
// And two units that request the same URL share its attempt count.
package memnet

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"flock/internal/randx"
)

// ErrConnReset is the error chaos-injected mid-body resets surface.
var ErrConnReset = errors.New("memnet: connection reset by chaos")

// ErrChaosDial is the transient refusal injected by PDialFail.
var ErrChaosDial = errors.New("memnet: chaos dial failure")

// ErrFlapDown is returned while a flapping host is inside a down window.
var ErrFlapDown = errors.New("memnet: host flapping (down window)")

// ChaosSpec configures the chaos schedule for one host. The zero value
// injects nothing. Every knob applies per request: the fabric and
// cmd/fedisim have no connections to charge it to.
type ChaosSpec struct {
	// Seed roots the host's decision stream. Two hosts with the same
	// Seed and spec fail identically.
	Seed uint64

	// PDialFail is the probability a request is refused with
	// ErrChaosDial.
	PDialFail float64

	// FlapUpDials / FlapDownDials script down/up windows in attempts of
	// one request: out of every FlapUpDials+FlapDownDials attempts, the
	// host serves FlapUpDials and refuses FlapDownDials in a row with
	// ErrFlapDown, from a phase the request draws. Either at 0 disables
	// flapping.
	FlapUpDials   int
	FlapDownDials int

	// Latency is added to every request; Jitter adds a further uniform
	// [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration

	// PReset is the probability a response body is cut with
	// ErrConnReset after between 1 and ResetAfterBytes bytes (default
	// 4096).
	PReset          float64
	ResetAfterBytes int

	// BytesPerSec throttles each request's request and response bodies
	// (slow-loris). 0 disables throttling.
	BytesPerSec int

	// PSlowReq stalls individual requests: with this probability a
	// request pauses for SlowReqDelay before it is served, producing the
	// bimodal per-request tail that hedged requests exist to cut.
	PSlowReq     float64
	SlowReqDelay time.Duration
}

// ChaosStats counts what the engine injected for one host.
type ChaosStats struct {
	Requests     int // attempts seen
	FailedDials  int // attempts refused via PDialFail
	FlapRejected int // attempts refused inside a down window
	Resets       int // response bodies cut mid-stream
	SlowRequests int // attempts stalled via PSlowReq
}

// Schedule is one host's fault schedule. It is safe for concurrent use.
type Schedule struct {
	spec ChaosSpec
	seed uint64

	mu       sync.Mutex
	attempts map[string]int
	stats    ChaosStats
}

// NewSchedule returns host's schedule under spec.
func NewSchedule(host string, spec ChaosSpec) *Schedule {
	return &Schedule{spec: spec, seed: mixHostSeed(spec.Seed, canonical(host)), attempts: map[string]int{}}
}

// mixHostSeed mixes the spec seed with the hostname so distinct hosts
// under one storm seed draw distinct streams.
func mixHostSeed(seed uint64, host string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(host); i++ {
		h = (h ^ uint64(host[i])) * 0x100000001b3
	}
	return h
}

// decision is the schedule's verdict on one attempt.
type decision struct {
	err   error         // ErrFlapDown or ErrChaosDial: refuse the attempt
	delay time.Duration // latency, jitter and stall, slept before serving
	reset int64         // cut the response body after this many bytes; 0: never
}

// Next counts one attempt of the request (method, request URI, body)
// and returns its refusal, ErrFlapDown or ErrChaosDial, or else the
// delay to sleep before serving it.
func (s *Schedule) Next(method, uri string, body []byte) (time.Duration, error) {
	d := s.decide(method, uri, body)
	return d.delay, d.err
}

// decide counts one attempt of the request and draws its decision.
func (s *Schedule) decide(method, uri string, body []byte) decision {
	key := method + " " + uri
	if len(body) > 0 {
		sum := sha256.Sum256(body)
		key += " " + hex.EncodeToString(sum[:8])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.attempts[key]
	s.attempts[key] = n + 1
	s.stats.Requests++

	spec := &s.spec
	keyRng := randx.New(s.seed).Split(key)
	rng := keyRng.SplitN("attempt", n)
	if cycle := spec.FlapUpDials + spec.FlapDownDials; spec.FlapUpDials > 0 && spec.FlapDownDials > 0 {
		// The phase is the key stream's next draw after the attempt
		// split, so it is the same for every attempt of the key.
		if (keyRng.Intn(cycle)+n)%cycle >= spec.FlapUpDials {
			s.stats.FlapRejected++
			return decision{err: ErrFlapDown}
		}
	}
	if spec.PDialFail > 0 && rng.Bool(spec.PDialFail) {
		s.stats.FailedDials++
		return decision{err: ErrChaosDial}
	}
	d := decision{delay: spec.Latency}
	if spec.Jitter > 0 {
		d.delay += time.Duration(rng.Float64() * float64(spec.Jitter))
	}
	if spec.PSlowReq > 0 && spec.SlowReqDelay > 0 && rng.Bool(spec.PSlowReq) {
		s.stats.SlowRequests++
		d.delay += spec.SlowReqDelay
	}
	if spec.PReset > 0 && rng.Bool(spec.PReset) {
		max := spec.ResetAfterBytes
		if max <= 0 {
			max = 4096
		}
		s.stats.Resets++
		d.reset = 1 + rng.Int63n(int64(max))
	}
	return d
}

// throttle is the time n body bytes take at the spec's byte rate; a nil
// schedule does not throttle.
func (s *Schedule) throttle(n int) time.Duration {
	if s == nil || s.spec.BytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(s.spec.BytesPerSec) * float64(time.Second))
}

// SetChaos installs a chaos schedule for a host. Passing nil clears it.
// A host marked down (SetDown) refuses requests before its schedule is
// consulted.
func (f *Fabric) SetChaos(host string, spec *ChaosSpec) {
	host = canonical(host)
	f.mu.Lock()
	defer f.mu.Unlock()
	if spec == nil {
		delete(f.chaos, host)
		return
	}
	f.chaos[host] = NewSchedule(host, *spec)
}

// ChaosStats reports what chaos injected for a host so far.
func (f *Fabric) ChaosStats(host string) ChaosStats {
	f.mu.Lock()
	s := f.chaos[canonical(host)]
	f.mu.Unlock()
	if s == nil {
		return ChaosStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Storm is a generated chaos plan over a set of hosts: some permanently
// dead, the rest assigned per-host ChaosSpecs.
type Storm struct {
	// Dead hosts are marked down for the whole run (the paper's
	// "instance down" population).
	Dead []string
	// Specs maps surviving hosts to their chaos schedules.
	Specs map[string]*ChaosSpec
}

// Apply installs the storm on a fabric: dead hosts go down, the rest get
// their chaos schedules.
func (st *Storm) Apply(f *Fabric) {
	for _, h := range st.Dead {
		f.SetDown(h, true)
	}
	for h, spec := range st.Specs {
		f.SetChaos(h, spec)
	}
}
