// Command fedisim generates a world and serves the simulated platforms
// over real TCP on loopback, so external tools (curl, custom crawlers)
// can poke at the same APIs the in-process pipeline crawls:
//
//	:8081  Twitter-like API        (GET /2/tweets/search/all?query=mastodon)
//	:8082  instance index          (GET /api/1.0/instances/list?count=0)
//	:8083  Perspective-like scorer (POST /v1alpha1/comments:analyze)
//	:8084  Google-Trends-like API  (GET /trends/api/series?term=mastodon)
//	:8085  every Mastodon instance, routed by Host header:
//	       curl -H "Host: mastodon.social" localhost:8085/api/v1/instance
//
// The process runs until interrupted.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"time"

	"flock/internal/birdsite"
	"flock/internal/crawler"
	"flock/internal/fediverse"
	"flock/internal/httpkit"
	"flock/internal/indexsvc"
	"flock/internal/memnet"
	"flock/internal/store"
	"flock/internal/toxsvc"
	"flock/internal/trendsvc"
	"flock/internal/world"
)

// chaosMiddleware injects seeded, per-host HTTP faults into a handler
// through memnet's fault schedule, the one the in-process fabric uses:
// each Host gets its own memnet.Schedule under spec, which decides
// every request from the request itself (method, URI, body digest and
// attempt number), never from arrival order. A refusal is answered with
// a 503 and a delay is slept before serving, so external crawlers can
// be soak-tested against the same §3.2 instance failures the
// in-process tests use.
func chaosMiddleware(spec memnet.ChaosSpec, next http.Handler) http.Handler {
	var mu sync.Mutex
	schedules := map[string]*memnet.Schedule{}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		s := schedules[r.Host]
		if s == nil {
			s = memnet.NewSchedule(r.Host, spec)
			schedules[r.Host] = s
		}
		mu.Unlock()
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "reading request body", http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		delay, err := s.Next(r.Method, r.RequestURI, body)
		if err != nil {
			http.Error(w, "chaos: injected failure", http.StatusServiceUnavailable)
			return
		}
		if httpkit.SleepContext(r.Context(), delay) != nil {
			return
		}
		next.ServeHTTP(w, r)
	})
}

// portTransport routes the crawler's virtual-host requests onto the
// loopback ports fedisim serves: the core services by well-known host,
// every fediverse instance to the shared Host-dispatched port. The
// scheme drops to plain http and the virtual host survives in the Host
// header, so handlers (and the breaker registry, keyed by URL host
// before rewrite) see the same names the in-process pipeline uses.
type portTransport struct {
	base int
	next http.RoundTripper
}

func (t portTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	port := t.base + 4
	switch req.URL.Host {
	case birdsite.Host:
		port = t.base
	case indexsvc.Host:
		port = t.base + 1
	case toxsvc.Host:
		port = t.base + 2
	}
	out := req.Clone(req.Context())
	out.Host = req.URL.Host
	out.URL.Scheme = "http"
	out.URL.Host = fmt.Sprintf("127.0.0.1:%d", port)
	return t.next.RoundTrip(out)
}

// runCrawl drives the §3 pipeline against the served loopback ports.
// With -checkpoint, an interrupt (^C) flushes progress — including the
// health registry — and a rerun resumes, planning around hosts the
// previous run quarantined.
func runCrawl(base int, ckptPath string, healthTTL, cooldown time.Duration, noHealthResume bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := crawler.Config{
		TwitterBase:     "https://" + birdsite.Host,
		IndexBase:       "https://" + indexsvc.Host,
		PerspectiveBase: "https://" + toxsvc.Host,
		Transport: crawler.Transport{
			HTTP:        httpkit.NewHTTPClient(portTransport{base: base, next: http.DefaultTransport}, 30*time.Second),
			Concurrency: 8,
			Breaker:     httpkit.BreakerPolicy{Probation: healthTTL, Cooldown: cooldown},
		},
		Logf:           log.Printf,
		NoHealthResume: noHealthResume,
	}
	if ckptPath != "" {
		cfg.Checkpoint = store.NewFileCheckpoint(ckptPath)
	}
	c := crawler.New(cfg)
	ds, err := c.Run(ctx)
	rep := c.Report()
	log.Print(rep.Summary())
	hosts := make([]string, 0, len(rep.SkippedQuarantined))
	for h := range rep.SkippedQuarantined {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		log.Printf("skipped quarantined %s: %s", h, rep.SkippedQuarantined[h])
	}
	if err != nil {
		if ckptPath != "" && errors.Is(err, context.Canceled) {
			log.Printf("crawl interrupted; rerun with -crawl -checkpoint %s to resume", ckptPath)
			return
		}
		log.Fatalf("crawl: %v", err)
	}
	cov := ds.Coverage()
	log.Printf("crawl done: %+v", cov)
}

func main() {
	migrants := flag.Int("migrants", 500, "approximate number of migrated users to simulate")
	seed := flag.Uint64("seed", 1, "world seed")
	base := flag.Int("port", 8081, "first port; five consecutive ports are used")
	chaosSeed := flag.Uint64("chaos", 0, "fault-injection seed for the fediverse port (0 = no chaos)")
	chaosFail := flag.Float64("chaos-fail", 0.10, "per-request probability of an injected 503 when -chaos is set")
	chaosDelay := flag.Duration("chaos-delay", 50*time.Millisecond, "max injected per-request latency when -chaos is set")
	chaosTail := flag.Float64("chaos-tail", 0, "per-request probability of a hard tail-latency stall when -chaos is set (0 = off)")
	chaosTailDelay := flag.Duration("chaos-tail-delay", 250*time.Millisecond, "stall duration for -chaos-tail requests")
	crawlMode := flag.Bool("crawl", false, "run the §3 crawl pipeline against the served ports, then exit")
	ckptPath := flag.String("checkpoint", "", "crawl checkpoint file; with -crawl, an interrupted run resumes from it")
	healthTTL := flag.Duration("health-ttl", time.Hour, "quarantine probation: how long a checkpointed dead host stays skipped before being probed again")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "crawl breaker cooldown before a half-open probe (0 = httpkit default; short values let quarantine form quickly under -chaos)")
	noHealthResume := flag.Bool("no-health-resume", false, "discard the checkpoint's health snapshot on resume and re-learn host health from scratch")
	flag.Parse()

	cfg := world.DefaultConfig(*migrants)
	cfg.Seed = *seed
	w, err := world.Generate(cfg)
	if err != nil {
		log.Fatalf("world: %v", err)
	}
	log.Printf("world ready: %d users, %d migrants, %d instances, %d tweets, %d statuses",
		len(w.Users), len(w.Migrants), len(w.Instances), w.TweetCount(), w.StatusCount())

	serve := func(port int, name string, h http.Handler) {
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		log.Printf("%-10s http://127.0.0.1:%d", name, port)
		//lint:allow goroutine demo servers live for the whole process; http.Serve blocks per listener
		go func() {
			if err := http.Serve(l, h); err != nil {
				log.Printf("%s stopped: %v", name, err)
			}
		}()
	}
	serve(*base+0, "birdsite", birdsite.New(w).Handler())
	serve(*base+1, "index", indexsvc.New(w).Handler())
	serve(*base+2, "toxicity", toxsvc.New(0).Handler())
	serve(*base+3, "trends", trendsvc.Handler())
	// All fediverse instances behind one port; dispatch is by Host.
	fediHandler := http.Handler(fediverse.New(w).Handler())
	if *chaosSeed != 0 {
		fediHandler = chaosMiddleware(memnet.ChaosSpec{
			Seed:         *chaosSeed,
			PDialFail:    *chaosFail,
			Jitter:       *chaosDelay,
			PSlowReq:     *chaosTail,
			SlowReqDelay: *chaosTailDelay,
		}, fediHandler)
		log.Printf("chaos on: seed=%d fail=%.2f max-delay=%v tail=%.2f tail-delay=%v (fediverse port only)",
			*chaosSeed, *chaosFail, *chaosDelay, *chaosTail, *chaosTailDelay)
	}
	serve(*base+4, "fediverse", fediHandler)
	log.Printf("fediverse hosts: e.g. curl -H 'Host: mastodon.social' http://127.0.0.1:%d/api/v1/instance", *base+4)

	if *crawlMode {
		runCrawl(*base, *ckptPath, *healthTTL, *breakerCooldown, *noHealthResume)
		return
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	log.Print("shutting down")
}
