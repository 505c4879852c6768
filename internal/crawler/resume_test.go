package crawler_test

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"flock/internal/crawler"
	"flock/internal/httpkit"
	"flock/internal/store"
)

// killingCheckpoint is a FileCheckpoint that cancels the crawl right
// after its n-th Save (never when n is 0) and records the phase of every
// progress it saves.
type killingCheckpoint struct {
	*store.FileCheckpoint
	n      int
	cancel context.CancelFunc
	phases []int
}

// Save is serialized by the crawler's tracker, so no lock is needed.
func (k *killingCheckpoint) Save(p *crawler.Progress) error {
	err := k.FileCheckpoint.Save(p)
	k.phases = append(k.phases, p.Phase)
	if len(k.phases) == k.n {
		k.cancel()
	}
	return err
}

// killPoints picks which saves of an uninterrupted run, given the phase
// of each saved progress, to kill after: every stride-th save, the first
// mid-phase save of every phase that saves mid-phase (the second save at
// the phase before it), and the last phase's boundary save.
func killPoints(phases []int, stride int) []int {
	var ns []int
	for n := stride; n <= len(phases); n += stride {
		ns = append(ns, n)
	}
	seen := map[int]int{}
	for i, ph := range phases {
		seen[ph]++
		if seen[ph] == 2 && i+1 < len(phases) {
			ns = append(ns, i+1)
		}
	}
	last := slices.Max(phases)
	ns = append(ns, slices.Index(phases, last)+1)
	slices.Sort(ns)
	return slices.Compact(ns)
}

// cripple takes down, on e's fabric, the most populated instance after
// the flagship, and quarantines the next one in the health registry of
// every crawler that the returned function builds, as a registry
// restored from an earlier crawl would. Units on the down host fail on
// their dials or its open breaker, and units on the quarantined host are
// skipped without a dial, so a crawl has gaps and skips whatever the
// timing. The default breaker's 30 s cooldown opens the down host once,
// short of quarantine.
func cripple(t testing.TB, e *soakEnv) func(crawler.Config) *crawler.Crawler {
	t.Helper()
	var hosts []string
	n := map[string]int{}
	for i, inst := range e.w.Instances {
		if m := e.w.MigrantsPerInstance[i]; m > 0 && inst.Domain != "mastodon.social" {
			hosts = append(hosts, inst.Domain)
			n[inst.Domain] = m
		}
	}
	if len(hosts) < 2 {
		t.Fatalf("world has %d populated instances besides the flagship, want 2", len(hosts))
	}
	slices.SortFunc(hosts, func(a, b string) int { return cmp.Or(n[b]-n[a], strings.Compare(a, b)) })
	down, quarantined := hosts[0], hosts[1]
	health := []httpkit.HostHealth{{
		Host:            quarantined,
		Opens:           httpkit.DefaultBreaker.QuarantineAfter,
		QuarantineOpens: httpkit.DefaultBreaker.QuarantineAfter,
		LastFailure:     time.Now(),
	}}
	return func(cfg crawler.Config) *crawler.Crawler {
		e.fab.SetDown(down, true)
		c := crawler.New(cfg)
		c.Health().ImportHealth(health)
		return c
	}
}

// TestCheckpointKillAnywhere kills a crawl right after a checkpoint save,
// for saves spread over the whole run, and resumes it each time with a
// fresh FileCheckpoint on the same file. One instance is down and one
// quarantined throughout (cripple). Every resumed dataset must be
// byte-identical to the uninterrupted one, and every resumed report must
// list the same gap keys per phase and the same quarantine skips: the
// gaps recorded before the kill come back from the checkpoint.
func TestCheckpointKillAnywhere(t *testing.T) {
	const nMigrants, seed, stride = 60, 21, 4
	e := newSoakEnv(t, nMigrants, seed)
	start := cripple(t, e)
	dir := t.TempDir()
	config := func(ck crawler.Checkpoint) crawler.Config {
		cfg := e.config()
		cfg.ScoreToxicity = true
		cfg.Checkpoint = ck
		cfg.CheckpointEvery = 8
		return cfg
	}

	ref := &killingCheckpoint{FileCheckpoint: store.NewFileCheckpoint(filepath.Join(dir, "ref.ckpt.gz"))}
	refC := start(config(ref))
	refDS, err := refC.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refDS)
	if err != nil {
		t.Fatal(err)
	}
	wantGaps, wantSkipped := gapKeys(refC.Report()), refC.Report().SkippedQuarantined
	if len(wantGaps["mastoTL"]) == 0 || len(wantGaps["activity"]) == 0 || len(wantSkipped) != 1 {
		t.Fatalf("uninterrupted run: gap keys %v, skipped %v; want Mastodon timeline and activity gaps and one skipped host", wantGaps, wantSkipped)
	}
	kills := killPoints(ref.phases, stride)
	t.Logf("%d saves in the uninterrupted run, killing after %v; phases %v; gap keys %v; skipped %v", len(ref.phases), kills, ref.phases, wantGaps, wantSkipped)

	for _, n := range kills {
		path := filepath.Join(dir, fmt.Sprintf("kill%d.ckpt.gz", n))
		ctx, cancel := context.WithCancel(context.Background())
		k := &killingCheckpoint{FileCheckpoint: store.NewFileCheckpoint(path), n: n, cancel: cancel}
		_, err := start(config(k)).Run(ctx)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("kill after save %d: %v", n, err)
		}
		c := start(config(store.NewFileCheckpoint(path)))
		ds, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("resume after save %d: %v", n, err)
		}
		rep := c.Report()
		if !rep.Resumed {
			t.Fatalf("run after save %d did not resume", n)
		}
		got, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("resume after save %d diverged: got %d bytes, want %d", n, len(got), len(want))
		}
		if gaps := gapKeys(rep); !reflect.DeepEqual(gaps, wantGaps) {
			t.Errorf("resume after save %d: gap keys %v, want %v", n, gaps, wantGaps)
		}
		if !maps.Equal(rep.SkippedQuarantined, wantSkipped) {
			t.Errorf("resume after save %d: skipped %v, want %v", n, rep.SkippedQuarantined, wantSkipped)
		}
	}
}
