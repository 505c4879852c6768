package analysis

import (
	"sort"

	"flock/internal/crawler"
	"flock/internal/textsim"
)

// Engine runs every analysis on the deterministic parallel kernels of
// internal/parallel. The zero value is valid: Workers <= 0 resolves to
// GOMAXPROCS.
//
// Determinism contract: for a fixed dataset, every Engine method returns
// a byte-identical result (under stable JSON encoding) at any Workers
// setting and across repeated runs. Per-item heavy work fans out through
// parallel.MapSlice into index-ordered slots and is folded serially, so
// floating-point accumulation order never depends on scheduling; sharded
// reductions merge only commutative integer counters and sets, in fixed
// shard order. Map-keyed inputs are always iterated via sorted key
// lists, never raw map order.
type Engine struct {
	// Workers bounds the worker pool per analysis (<= 0: GOMAXPROCS).
	Workers int
	// Cache is a no-op (see textsim.Cache), kept only so that code
	// which still sets it compiles; delete it with its last user.
	Cache *textsim.Cache
}

// sortedKeys returns the keys of a string-keyed map in sorted order, the
// engine's canonical way to turn map-shaped crawl data into a
// deterministic work list.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Free-function forms of every analysis, kept for callers that do not
// need worker control; each delegates to a default Engine (GOMAXPROCS
// workers).

// RQ1 computes the centralization results.
func RQ1(ds *crawler.Dataset) *Centralization { return Engine{}.RQ1(ds) }

// SocialNetworkSizes computes Fig. 7 over all verified pairs.
func SocialNetworkSizes(ds *crawler.Dataset) *NetworkSizes { return Engine{}.SocialNetworkSizes(ds) }

// RQ2Contagion computes the social-influence results.
func RQ2Contagion(ds *crawler.Dataset) *Contagion { return Engine{}.RQ2Contagion(ds) }

// RQ2Switching computes the instance-switching results.
func RQ2Switching(ds *crawler.Dataset) *Switching { return Engine{}.RQ2Switching(ds) }

// Timelines computes Fig. 11 over the crawled timelines.
func Timelines(ds *crawler.Dataset) *DailyActivity { return Engine{}.Timelines(ds) }

// RQ3Sources computes the tweet-source results.
func RQ3Sources(ds *crawler.Dataset) *Sources { return Engine{}.RQ3Sources(ds) }

// RQ3Overlap computes cross-platform content similarity.
func RQ3Overlap(ds *crawler.Dataset, opt OverlapOptions) *Overlap {
	return Engine{}.RQ3Overlap(ds, opt)
}

// RQ3Hashtags extracts the top-30 hashtags per platform.
func RQ3Hashtags(ds *crawler.Dataset) *HashtagTables { return Engine{}.RQ3Hashtags(ds) }

// RQ3Toxicity computes toxicity prevalence on both platforms.
func RQ3Toxicity(ds *crawler.Dataset, opt ToxicityOptions) *ToxicityResult {
	return Engine{}.RQ3Toxicity(ds, opt)
}

// RQ4Retention computes the retention extension over crawled timelines.
func RQ4Retention(ds *crawler.Dataset) *RetentionResult { return Engine{}.RQ4Retention(ds) }

// CollectionFigure computes Fig. 2 from the collection corpus.
func CollectionFigure(ds *crawler.Dataset) *CollectionSeries { return Engine{}.CollectionFigure(ds) }

// ActivityFigure aggregates the per-instance weekly activity crawl.
func ActivityFigure(ds *crawler.Dataset) *ActivitySeries { return Engine{}.ActivityFigure(ds) }
