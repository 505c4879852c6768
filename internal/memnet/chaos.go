// Chaos engine: seeded, deterministic failure schedules per host.
//
// The paper's crawl survived a hostile network — 11.58% of Mastodon
// timeline crawls failed because instances died mid-crawl (§3.2), and
// both platforms throttle aggressively. The chaos engine is the fabric's
// one fault injector. A ChaosSpec can set a single failure mode (a fixed
// latency, a flap cycle) or compose the full storm: probabilistic dial
// failures, scripted down/up flap windows, latency jitter,
// mid-connection resets and byte-rate throttling (slow-loris), all drawn
// from a randx-seeded stream so every chaos run is reproducible from its
// seed.
//
// Determinism: every per-dial decision (fail? how much latency? will this
// connection reset, and after how many bytes?) is derived from
// (host seed, dial index) alone, never from a shared mutable stream, so
// the schedule for dial #k of a host is the same regardless of goroutine
// interleaving. Flapping is likewise counted in dial attempts, not wall
// time: the host serves FlapUpDials dials, refuses the next
// FlapDownDials, and repeats.
package memnet

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flock/internal/randx"
)

// ErrConnReset is the error chaos-injected mid-connection resets surface.
var ErrConnReset = errors.New("memnet: connection reset by chaos")

// ErrChaosDial is the transient error injected for probabilistic dial
// failures.
var ErrChaosDial = errors.New("memnet: chaos dial failure")

// ErrFlapDown is returned while a flapping host is inside a down window.
var ErrFlapDown = errors.New("memnet: host flapping (down window)")

// ChaosSpec configures the chaos schedule for one host. The zero value
// injects nothing.
type ChaosSpec struct {
	// Seed roots the host's decision stream. Two hosts with the same
	// Seed and spec fail identically.
	Seed uint64

	// PDialFail is the probability each dial fails with ErrChaosDial.
	PDialFail float64

	// FlapUpDials / FlapDownDials script down/up windows in dial counts:
	// the host accepts FlapUpDials dials, then refuses the next
	// FlapDownDials with ErrFlapDown, cycling. FlapUpDials == 0 disables
	// flapping.
	FlapUpDials   int
	FlapDownDials int

	// Latency is added to every successful dial; Jitter adds a further
	// uniform [0, Jitter) on top.
	Latency time.Duration
	Jitter  time.Duration

	// PReset is the probability a dialed connection is reset after
	// carrying between 1 and ResetAfterBytes bytes (default 4096).
	PReset          float64
	ResetAfterBytes int

	// BytesPerSec throttles the connection's combined read+write rate
	// (slow-loris). 0 disables throttling.
	BytesPerSec int

	// PSlowReq stalls individual HTTP exchanges: each request served on
	// a connection independently pauses for SlowReqDelay with this
	// probability before the response bytes flow. Unlike Latency/Jitter
	// (paid once, at dial time) this bites pooled keep-alive
	// connections too, producing the bimodal per-request tail that
	// hedged requests exist to cut.
	PSlowReq     float64
	SlowReqDelay time.Duration
}

// ChaosStats counts what the engine injected for one host.
type ChaosStats struct {
	Dials        int // dial attempts seen
	FailedDials  int // dials failed via PDialFail
	FlapRejected int // dials refused inside a down window
	Resets       int // connections reset mid-stream
	SlowRequests int // exchanges stalled via PSlowReq
}

// chaosHost is the per-host runtime state behind a ChaosSpec.
type chaosHost struct {
	spec     ChaosSpec
	hostSeed uint64

	mu    sync.Mutex
	dials int
	stats ChaosStats
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

// dialRand returns the decision stream for one dial attempt, a pure
// function of (host seed, dial index).
func (c *chaosHost) dialRand(n int) *randx.Source {
	return randx.New(c.hostSeed).SplitN("dial", n)
}

// plan decides the fate of one dial: the latency to apply plus a
// pre-built connection wrapper when the spec injects mid-connection
// chaos (nil when the bare pipe suffices), or an error (fail/flap).
func (c *chaosHost) plan() (latency time.Duration, cc *chaosConn, err error) {
	c.mu.Lock()
	n := c.dials
	c.dials++
	c.stats.Dials++
	rng := c.dialRand(n)

	// Flap windows are scripted in dial attempts for determinism.
	if c.spec.FlapUpDials > 0 && c.spec.FlapDownDials > 0 {
		cycle := c.spec.FlapUpDials + c.spec.FlapDownDials
		if n%cycle >= c.spec.FlapUpDials {
			c.stats.FlapRejected++
			c.mu.Unlock()
			return 0, nil, ErrFlapDown
		}
	}
	if c.spec.PDialFail > 0 && rng.Bool(c.spec.PDialFail) {
		c.stats.FailedDials++
		c.mu.Unlock()
		return 0, nil, ErrChaosDial
	}
	c.mu.Unlock()

	latency = c.spec.Latency
	if c.spec.Jitter > 0 {
		latency += time.Duration(rng.Float64() * float64(c.spec.Jitter))
	}
	var resetAfter int64
	if c.spec.PReset > 0 && rng.Bool(c.spec.PReset) {
		max := c.spec.ResetAfterBytes
		if max <= 0 {
			max = 4096
		}
		resetAfter = 1 + rng.Int63n(int64(max))
	}
	if resetAfter > 0 || c.spec.BytesPerSec > 0 || c.slowReqs() {
		cc = &chaosConn{host: c, resetAfter: resetAfter, bytesPerSec: c.spec.BytesPerSec}
		if c.slowReqs() {
			// Per-exchange decisions draw from a stream keyed by
			// (host seed, dial index): deterministic per connection,
			// independent across connections.
			cc.slowRng = randx.New(c.hostSeed).SplitN("slowreq", n)
			cc.pSlow = c.spec.PSlowReq
			cc.slowDelay = c.spec.SlowReqDelay
		}
	}
	return latency, cc, nil
}

// slowReqs reports whether the spec stalls individual exchanges.
func (c *chaosHost) slowReqs() bool {
	return c.spec.PSlowReq > 0 && c.spec.SlowReqDelay > 0
}

func (c *chaosHost) recordSlow() {
	c.mu.Lock()
	c.stats.SlowRequests++
	c.mu.Unlock()
}

func (c *chaosHost) recordReset() {
	c.mu.Lock()
	c.stats.Resets++
	c.mu.Unlock()
}

func (c *chaosHost) snapshot() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// SetChaos installs a chaos schedule for a host. Passing nil clears it.
// A host marked down (SetDown) refuses dials before its schedule is
// consulted.
func (f *Fabric) SetChaos(host string, spec *ChaosSpec) {
	host = canonical(host)
	f.mu.Lock()
	defer f.mu.Unlock()
	if spec == nil {
		delete(f.chaos, host)
		return
	}
	f.chaos[host] = &chaosHost{spec: *spec, hostSeed: mixHostSeed(spec.Seed, host)}
}

// ChaosStats reports what chaos injected for a host so far.
func (f *Fabric) ChaosStats(host string) ChaosStats {
	f.mu.Lock()
	c := f.chaos[canonical(host)]
	f.mu.Unlock()
	if c == nil {
		return ChaosStats{}
	}
	return c.snapshot()
}

// chaosConn wraps a fabric conn with reset-after-N-bytes, byte-rate
// throttling and per-exchange stalls. The reset closes the underlying
// pipe so the peer observes the failure too.
type chaosConn struct {
	net.Conn
	host        *chaosHost
	resetAfter  int64 // total bytes before the reset fires; 0 = never
	bytesPerSec int   // combined read+write throttle; 0 = unthrottled

	// Per-exchange tail injection (PSlowReq): the first Read after a
	// Write marks a request/response turnaround and may stall.
	slowRng   *randx.Source // nil: no slow-request injection
	pSlow     float64
	slowDelay time.Duration
	slowMu    sync.Mutex
	wroteLast atomic.Bool

	transferred atomic.Int64
	tripped     atomic.Bool
}

// maxThrottleSleep caps one operation's throttle pause so a tiny rate
// cannot wedge a test forever; the aggregate rate still bites.
const maxThrottleSleep = 100 * time.Millisecond

func (c *chaosConn) account(n int) {
	if n > 0 && c.bytesPerSec > 0 {
		d := time.Duration(float64(n) / float64(c.bytesPerSec) * float64(time.Second))
		if d > maxThrottleSleep {
			d = maxThrottleSleep
		}
		time.Sleep(d)
	}
	if c.resetAfter > 0 && c.transferred.Add(int64(n)) >= c.resetAfter {
		if c.tripped.CompareAndSwap(false, true) {
			c.host.recordReset()
			_ = c.Conn.Close()
		}
	}
}

func (c *chaosConn) resetErr(op string) error {
	return &net.OpError{Op: op, Net: "memnet", Err: ErrConnReset}
}

// maybeStall fires at a write→read turnaround: the request is on the
// wire and the caller is about to read the response head. With
// probability pSlow the exchange stalls for slowDelay, modelling an
// overloaded worker rather than a slow link.
func (c *chaosConn) maybeStall() {
	if c.slowRng == nil || !c.wroteLast.CompareAndSwap(true, false) {
		return
	}
	c.slowMu.Lock()
	slow := c.slowRng.Bool(c.pSlow)
	c.slowMu.Unlock()
	if slow {
		c.host.recordSlow()
		time.Sleep(c.slowDelay)
	}
}

func (c *chaosConn) Read(p []byte) (int, error) {
	if c.tripped.Load() {
		return 0, c.resetErr("read")
	}
	c.maybeStall()
	n, err := c.Conn.Read(p)
	c.account(n)
	if err == nil && c.tripped.Load() {
		// Deliver the bytes already read; the next operation fails.
		return n, nil
	}
	return n, err
}

func (c *chaosConn) Write(p []byte) (int, error) {
	if c.tripped.Load() {
		return 0, c.resetErr("write")
	}
	if c.slowRng != nil {
		c.wroteLast.Store(true)
	}
	n, err := c.Conn.Write(p)
	c.account(n)
	return n, err
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

// StormConfig tunes RandomStorm's fault mix. Fractions are of the host
// list and need not sum to 1; leftover hosts get light latency jitter
// only.
type StormConfig struct {
	FracDead      float64 // permanently down
	FracFlapping  float64 // scripted down/up windows
	FracLossy     float64 // probabilistic dial failures
	FracThrottled float64 // byte-rate throttled + occasional resets
}

// DefaultStorm mirrors the paper's observed failure mix: ~8% of hosts
// dead outright, plus flapping, lossy and throttled cohorts.
var DefaultStorm = StormConfig{FracDead: 0.08, FracFlapping: 0.10, FracLossy: 0.15, FracThrottled: 0.10}

// RandomStorm deals the hosts into fault cohorts using the seeded source.
// The same (seed, hosts) input always yields the same storm. Hosts the
// caller must keep alive (core services) should simply be left off the
// list.
func RandomStorm(rng *randx.Source, hosts []string, cfg StormConfig) *Storm {
	st := &Storm{Specs: make(map[string]*ChaosSpec)}
	n := len(hosts)
	if n == 0 {
		return st
	}
	order := make([]string, n)
	copy(order, hosts)
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })

	count := func(frac float64) int { return int(float64(n) * frac) }
	i := 0
	take := func(k int) []string {
		if i+k > n {
			k = n - i
		}
		out := order[i : i+k]
		i += k
		return out
	}
	st.Dead = append(st.Dead, take(count(cfg.FracDead))...)
	seed := rng.Uint64()
	for _, h := range take(count(cfg.FracFlapping)) {
		st.Specs[h] = &ChaosSpec{
			Seed:          seed,
			FlapUpDials:   3 + rng.Intn(6),
			FlapDownDials: 2 + rng.Intn(6),
			Latency:       time.Millisecond,
			Jitter:        2 * time.Millisecond,
		}
	}
	for _, h := range take(count(cfg.FracLossy)) {
		st.Specs[h] = &ChaosSpec{
			Seed:      seed,
			PDialFail: 0.15 + 0.25*rng.Float64(),
			Jitter:    2 * time.Millisecond,
		}
	}
	for _, h := range take(count(cfg.FracThrottled)) {
		st.Specs[h] = &ChaosSpec{
			Seed:        seed,
			BytesPerSec: 64 << 10,
			PReset:      0.05,
			Latency:     time.Millisecond,
		}
	}
	for _, h := range order[i:] {
		st.Specs[h] = &ChaosSpec{Seed: seed, Jitter: time.Millisecond}
	}
	return st
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
