package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"flock/internal/birdsite"
	"flock/internal/crawler"
	"flock/internal/httpkit"
	"flock/internal/indexsvc"
	"flock/internal/store"
	"flock/internal/toxsvc"
)

// tracer keeps spans in memory for the whole traced process and writes
// them out once at the end. A nil *tracer records nothing, so untraced
// reps run the same code with no span bookkeeping.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed interval. IDs are 1-based indexes into
// tracer.spans; Parent 0 marks a root.
type span struct {
	ID, Parent int
	Name       string
	Start, End time.Duration // since the tracer's epoch
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span under parent and returns its ID (0 when untraced).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: at, End: at})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// get returns a copy of span id.
func (t *tracer) get(id int) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// add records an already finished interval.
func (t *tracer) add(name string, parent int, start, end time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(t.spans)
}

// adopt moves the children of from that are named with prefix and start
// inside to's interval under to. Checkpoint spans are recorded under the
// crawl and moved into the phase they stalled once the phases are known.
func (t *tracer) adopt(from, to int, prefix string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	into := t.spans[to-1]
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == from && strings.HasPrefix(s.Name, prefix) && s.Start >= into.Start && s.Start <= into.End {
			s.Parent = to
		}
	}
}

// covered returns the length of the union of intervals, clipped to
// [lo, hi]. Children of one span may overlap (concurrent HTTP attempts),
// so their durations cannot simply be summed.
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, p := range iv {
		a, b := max(p[0], lo), min(p[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	return total + curHi - curLo
}

// selfTimes returns every span's duration minus the part of its
// interval its children cover.
func (t *tracer) selfTimes() []time.Duration {
	kids := map[int][][2]time.Duration{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// write appends the spans to path as JSONL: one object per span with
// the rep's world seed, its ID, name, start, end, parent and self time,
// times in seconds since the rep process started tracing. IDs are unique
// within a world.
func (t *tracer) write(path string, world uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		rec := struct {
			World  uint64  `json:"world"`
			ID     int     `json:"id"`
			Parent int     `json:"parent"`
			Name   string  `json:"name"`
			Start  float64 `json:"start_s"`
			End    float64 `json:"end_s"`
			Self   float64 `json:"self_s"`
		}{world, s.ID, s.Parent, s.Name, s.Start.Seconds(), s.End.Seconds(), self[i].Seconds()}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The crawl's phases in execution order; each owns the endpoint classes
// phaseOf maps to it.
var phases = []string{"index", "tweets", "mapping", "twitter_tl", "mastodon_tl", "followees", "activity", "toxicity"}

// phaseOf maps a request to its service and to the crawl phase whose
// endpoint class it belongs to (an index into phases).
func phaseOf(u *url.URL) (service string, phase int) {
	host, path := strings.ToLower(u.Hostname()), u.Path
	switch {
	case host == indexsvc.Host:
		return "indexsvc", 0
	case host == toxsvc.Host:
		return "toxsvc", 7
	case host == birdsite.Host:
		switch {
		case strings.HasPrefix(path, "/2/tweets/search"):
			return "birdsite", 1
		case strings.HasSuffix(path, "/tweets"):
			return "birdsite", 3
		case strings.HasSuffix(path, "/following"):
			return "birdsite", 5
		}
		return "birdsite", 2
	}
	switch {
	case strings.HasSuffix(path, "/statuses"):
		return "fediverse", 4
	case strings.HasSuffix(path, "/following"):
		return "fediverse", 5
	case strings.HasSuffix(path, "/activity"):
		return "fediverse", 6
	}
	return "fediverse", 2
}

// attempt is one HTTP exchange as the transport below httpkit saw it:
// retries and hedges are separate attempts, breaker short-circuits never
// get here.
type attempt struct {
	service    string
	phase      int
	start, end time.Duration
	bytes      int64
	resp       bool // a response arrived, whatever its status
	failed     bool // transport error, 429 or 5xx
	closed     bool
}

// timedDoer is the httpkit.Doer the traced crawl runs on: it wraps the
// fabric client and times every attempt from the request to the close of
// its response body.
type timedDoer struct {
	next httpkit.Doer
	tr   *tracer

	mu       sync.Mutex
	attempts []attempt
	maxPhase int
}

// Do times one attempt. Phases run one after another, so an attempt whose
// endpoint class belongs to an earlier phase (a Mastodon lookup retried
// during the timeline phase) is charged to the phase already running.
func (d *timedDoer) Do(r *http.Request) (*http.Response, error) {
	svc, ph := phaseOf(r.URL)
	d.mu.Lock()
	d.maxPhase = max(d.maxPhase, ph)
	i := len(d.attempts)
	d.attempts = append(d.attempts, attempt{service: svc, phase: d.maxPhase, start: d.tr.now()})
	d.mu.Unlock()

	resp, err := d.next.Do(r)
	at := d.tr.now()
	d.mu.Lock()
	a := &d.attempts[i]
	a.end = at
	a.resp = err == nil
	a.failed = err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, d: d, i: i}
	return resp, nil
}

// timedBody ends its attempt when the caller closes the response body.
type timedBody struct {
	io.ReadCloser
	d *timedDoer
	i int
	n int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	at := b.d.tr.now()
	b.d.mu.Lock()
	if a := &b.d.attempts[b.i]; !a.closed {
		a.closed, a.end, a.bytes = true, at, b.n
	}
	b.d.mu.Unlock()
	return err
}

// timedCheckpoint is the crawler.Checkpoint the traced resume workload
// runs on: it times every Save and Load of the wrapped FileCheckpoint
// and sums the bytes each save leaves on disk.
type timedCheckpoint struct {
	fc     *store.FileCheckpoint
	tr     *tracer
	parent int

	mu      sync.Mutex
	saves   int
	save    time.Duration
	saveMax time.Duration
	load    time.Duration
	written int64
}

func (c *timedCheckpoint) Load() (*crawler.Progress, error) {
	id := c.tr.begin("store.ckpt_load", c.parent)
	start := time.Now()
	p, err := c.fc.Load()
	d := time.Since(start)
	c.tr.end(id)
	c.mu.Lock()
	c.load += d
	c.mu.Unlock()
	return p, err
}

func (c *timedCheckpoint) Save(p *crawler.Progress) error {
	id := c.tr.begin("store.ckpt_save", c.parent)
	start := time.Now()
	err := c.fc.Save(p)
	d := time.Since(start)
	c.tr.end(id)
	var size int64
	if fi, serr := os.Stat(c.fc.Path); serr == nil {
		size = fi.Size()
	}
	c.mu.Lock()
	c.saves++
	c.save += d
	c.saveMax = max(c.saveMax, d)
	c.written += size
	c.mu.Unlock()
	return err
}

// percentileMs returns the q-quantile (nearest rank) of ds in ms.
func percentileMs(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(float64(len(ds))*q+0.999999) - 1
	return float64(ds[min(max(i, 0), len(ds)-1)]) / float64(time.Millisecond)
}

// finishLeg turns one traced crawl leg into spans and layer metrics:
// a span per phase from its first to its last attempt, the attempts
// under their phases, and the checkpoint spans moved into the phase they
// stalled.
func (r *rep) finishLeg(l *leg) {
	// A losing hedge may still be closing its body after Run returns.
	l.doer.mu.Lock()
	attempts := slices.Clone(l.doer.attempts)
	l.doer.mu.Unlock()
	crawl := r.tr.get(l.span)
	phaseSpan := make([]int, len(phases))
	var iv [][2]time.Duration
	for p, name := range phases {
		lo, hi, seen := time.Duration(0), time.Duration(0), false
		for _, a := range attempts {
			if a.phase != p {
				continue
			}
			if !seen || a.start < lo {
				lo = a.start
			}
			hi, seen = max(hi, a.end), true
		}
		if !seen {
			continue
		}
		phaseSpan[p] = r.tr.add("crawler."+name, l.span, lo, hi)
		r.tr.adopt(l.span, phaseSpan[p], "store.")
		r.layer["crawler."+name+"_s"] += (hi - lo).Seconds()
		iv = append(iv, [2]time.Duration{lo, hi})
	}
	r.layer["crawler.self_s"] += (crawl.End - crawl.Start - covered(iv, crawl.Start, crawl.End)).Seconds()

	for _, a := range attempts {
		r.tr.add(a.service+".request", phaseSpan[a.phase], a.start, a.end)
		r.layer["httpkit.resp_mb"] += float64(a.bytes) / (1 << 20)
		if a.failed {
			r.failedAttempts++
		}
		if a.resp {
			r.latency[a.service] = append(r.latency[a.service], a.end-a.start)
		}
	}
	r.layer["httpkit.attempts"] += float64(len(attempts))
	if c := l.ckpt; c != nil {
		r.layer["store.ckpt_saves"] += float64(c.saves)
		r.layer["store.ckpt_save_s"] += c.save.Seconds()
		r.layer["store.ckpt_save_max_ms"] = max(r.layer["store.ckpt_save_max_ms"], float64(c.saveMax)/float64(time.Millisecond))
		r.layer["store.ckpt_written_mb"] += float64(c.written) / (1 << 20)
		r.layer["store.ckpt_load_s"] += c.load.Seconds()
	}
}
