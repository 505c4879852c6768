package crawler_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"flock/internal/crawler"
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

// TestCheckpointKillAnywhere kills a crawl right after a checkpoint save,
// for saves spread over the whole run, and resumes it each time with a
// fresh FileCheckpoint on the same file. Every resumed dataset must be
// byte-identical to the uninterrupted one.
func TestCheckpointKillAnywhere(t *testing.T) {
	const nMigrants, seed, stride = 60, 21, 4
	e := newSoakEnv(t, nMigrants, seed)
	dir := t.TempDir()
	config := func(ck crawler.Checkpoint) crawler.Config {
		cfg := e.config()
		cfg.ScoreToxicity = true
		cfg.Checkpoint = ck
		cfg.CheckpointEvery = 8
		return cfg
	}

	ref := &killingCheckpoint{FileCheckpoint: store.NewFileCheckpoint(filepath.Join(dir, "ref.ckpt.gz"))}
	refDS, err := crawler.New(config(ref)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refDS)
	if err != nil {
		t.Fatal(err)
	}
	kills := killPoints(ref.phases, stride)
	t.Logf("%d saves in the uninterrupted run, killing after %v; phases %v", len(ref.phases), kills, ref.phases)

	for _, n := range kills {
		path := filepath.Join(dir, fmt.Sprintf("kill%d.ckpt.gz", n))
		ctx, cancel := context.WithCancel(context.Background())
		k := &killingCheckpoint{FileCheckpoint: store.NewFileCheckpoint(path), n: n, cancel: cancel}
		_, err := crawler.New(config(k)).Run(ctx)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("kill after save %d: %v", n, err)
		}
		c := crawler.New(config(store.NewFileCheckpoint(path)))
		ds, err := c.Run(context.Background())
		if err != nil {
			t.Fatalf("resume after save %d: %v", n, err)
		}
		if !c.Report().Resumed {
			t.Fatalf("run after save %d did not resume", n)
		}
		got, err := json.Marshal(ds)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("resume after save %d diverged: got %d bytes, want %d", n, len(got), len(want))
		}
	}
}
