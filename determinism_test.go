package flock

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"

	"flock/internal/analysis"
	"flock/internal/core"
	"flock/internal/crawler"
	"flock/internal/stats"
	"flock/internal/textsim"
)

var (
	detOnce sync.Once
	detDS   *crawler.Dataset
	detErr  error
)

// detDataset crawls one small shared world for the determinism tests.
func detDataset(t *testing.T) *crawler.Dataset {
	detOnce.Do(func() {
		cfg := core.DefaultConfig(150)
		cfg.World.Seed = 7
		cfg.ScoreToxicity = false
		res, err := core.Run(context.Background(), cfg)
		if err != nil {
			detErr = err
			return
		}
		detDS = res.Dataset
	})
	if detErr != nil {
		t.Fatal(detErr)
	}
	return detDS
}

// analysisReport runs every RQ analysis through one engine and renders
// the results as stable JSON. ECDF marshals as its sorted sample array
// and encoding/json sorts map keys, so equal results give equal bytes.
func analysisReport(t *testing.T, ds *crawler.Dataset, workers int) []byte {
	t.Helper()
	eng := analysis.Engine{Workers: workers}
	report := map[string]any{
		"rq1":        eng.RQ1(ds),
		"networks":   eng.SocialNetworkSizes(ds),
		"contagion":  eng.RQ2Contagion(ds),
		"switching":  eng.RQ2Switching(ds),
		"daily":      eng.Timelines(ds),
		"sources":    eng.RQ3Sources(ds),
		"overlap":    eng.RQ3Overlap(ds, analysis.OverlapOptions{}),
		"hashtags":   eng.RQ3Hashtags(ds),
		"toxicity":   eng.RQ3Toxicity(ds, analysis.ToxicityOptions{}),
		"collection": eng.CollectionFigure(ds),
		"activity":   eng.ActivityFigure(ds),
		"retention":  eng.RQ4Retention(ds),
	}
	b, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAnalysisDeterministicAcrossWorkers is the engine's acceptance
// test: the full RQ1-RQ3 (+retention) report must be byte-identical for
// any worker count and across consecutive runs at the same count.
func TestAnalysisDeterministicAcrossWorkers(t *testing.T) {
	ds := detDataset(t)
	want := analysisReport(t, ds, 1)
	if len(want) < 100 {
		t.Fatalf("implausibly small report: %d bytes", len(want))
	}
	for _, w := range []int{1, 2, 8} {
		for run := 0; run < 2; run++ {
			got := analysisReport(t, ds, w)
			if !bytes.Equal(got, want) {
				t.Fatalf("workers=%d run=%d: report differs from serial baseline (%d vs %d bytes)",
					w, run, len(got), len(want))
			}
		}
	}
}

// TestAnalyzeDeterministicViaConfig covers the same property one layer
// up: core.Analyze with different AnalysisWorkers settings.
func TestAnalyzeDeterministicViaConfig(t *testing.T) {
	ds := detDataset(t)
	render := func(workers int) []byte {
		cfg := core.DefaultConfig(150)
		cfg.ScoreToxicity = false
		cfg.AnalysisWorkers = workers
		res := core.Analyze(ds, cfg)
		b, err := json.Marshal(res.RQ1)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := json.Marshal(res.Overlap)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, b2...)
	}
	want := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); !bytes.Equal(got, want) {
			t.Fatalf("AnalysisWorkers=%d: Analyze output differs", w)
		}
	}
}

// denseMatch is one status's best tweet match under the dense scan.
type denseMatch struct {
	sim       float64
	identical bool
}

// denseMatches is the Fig. 14 scan the sparse kernel replaced: every
// canonical text embedded on its own, every status compared with every
// tweet of its user through textsim.Cosine, a strictly greater cosine
// winning. It does not depend on the threshold, so one scan serves all.
func denseMatches(ds *crawler.Dataset) map[string][]denseMatch {
	out := make(map[string][]denseMatch)
	for id, mtl := range ds.MastodonTimelines {
		ttl := ds.TwitterTimelines[id]
		if mtl == nil || ttl == nil {
			continue
		}
		rows := make([]textsim.Vector, len(ttl.Posts))
		for i, p := range ttl.Posts {
			rows[i] = textsim.Embed(textsim.Canonical(p.Text))
		}
		for _, sp := range mtl.Posts {
			q := textsim.Embed(textsim.Canonical(sp.Text))
			best, bestSim := -1, math.Inf(-1)
			for i, v := range rows {
				if s := textsim.Cosine(q, v); s > bestSim {
					best, bestSim = i, s
				}
			}
			if best >= 0 {
				out[id] = append(out[id], denseMatch{bestSim, textsim.Identical(sp.Text, ttl.Posts[best].Text)})
			}
		}
	}
	return out
}

// denseOverlap folds denseMatches into an Overlap the way RQ3Overlap
// does, serially over sorted user ids.
func denseOverlap(ds *crawler.Dataset, matches map[string][]denseMatch, opt analysis.OverlapOptions) *analysis.Overlap {
	ids := make([]string, 0, len(ds.MastodonTimelines))
	for id := range ds.MastodonTimelines {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var idFracs, simFracs []float64
	different := 0
	for _, id := range ids {
		if opt.MaxUsers > 0 && len(idFracs) >= opt.MaxUsers {
			break
		}
		mtl, ttl := ds.MastodonTimelines[id], ds.TwitterTimelines[id]
		if mtl == nil || ttl == nil || mtl.State != crawler.StateOK || ttl.State != crawler.StateOK ||
			len(mtl.Posts) == 0 || len(ttl.Posts) == 0 {
			continue
		}
		identical, similar := 0, 0
		for _, m := range matches[id] {
			switch {
			case m.identical:
				identical++
			case m.sim >= opt.Threshold:
				similar++
			}
		}
		n := float64(len(mtl.Posts))
		idFracs = append(idFracs, float64(identical)/n)
		simFracs = append(simFracs, float64(identical+similar)/n)
		if float64(identical+similar)/n < analysis.DifferentFloor {
			different++
		}
	}
	out := &analysis.Overlap{
		IdenticalFrac: stats.NewECDF(idFracs),
		SimilarFrac:   stats.NewECDF(simFracs),
		MeanIdentical: stats.Mean(idFracs),
		MeanSimilar:   stats.Mean(simFracs),
		UsersCompared: len(idFracs),
	}
	if out.UsersCompared > 0 {
		out.CompletelyDifferentFrac = float64(different) / float64(out.UsersCompared)
	}
	return out
}

// TestRQ3OverlapMatchesDenseReference pins the Fig. 14 pass to the dense
// scan it replaced: the same report, byte for byte, at several
// thresholds and user caps.
func TestRQ3OverlapMatchesDenseReference(t *testing.T) {
	ds := detDataset(t)
	matches := denseMatches(ds)
	var similar []float64
	for _, maxUsers := range []int{0, 20} {
		for _, th := range []float64{0.3, 0.5, 0.7, 0.9} {
			opt := analysis.OverlapOptions{Threshold: th, MaxUsers: maxUsers}
			got, err := json.Marshal(analysis.Engine{}.RQ3Overlap(ds, opt))
			if err != nil {
				t.Fatal(err)
			}
			ref := denseOverlap(ds, matches, opt)
			want, err := json.Marshal(ref)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("threshold %v, MaxUsers %d:\n got %s\nwant %s", th, maxUsers, got, want)
			}
			if maxUsers == 20 && ref.UsersCompared != 20 {
				t.Fatalf("MaxUsers 20 compared %d users", ref.UsersCompared)
			}
			if maxUsers == 0 {
				similar = append(similar, ref.MeanSimilar)
			}
		}
	}
	// The thresholds must bite: a lower one finds strictly more similar
	// statuses, so the comparison above covers both outcomes of the
	// threshold test.
	for i := 1; i < len(similar); i++ {
		if !(similar[i] < similar[i-1]) {
			t.Fatalf("MeanSimilar over thresholds 0.3..0.9 = %v, want strictly decreasing", similar)
		}
	}
}
