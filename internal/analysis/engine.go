package analysis

import (
	"sort"

	"flock/internal/textsim"
)

// Engine runs the analysis passes. The zero value is valid.
//
// Nine passes are plain loops: at a few hundred migrants each takes at
// most a few milliseconds, and two workers made them slower or barely
// faster. Three fan out over internal/parallel, where the work pays for
// it: RQ3Overlap (a quadratic per-user similarity scan), RQ3Toxicity
// (scores every post when the crawl did not) and RQ3Hashtags (scans
// every post's text). Their per-user results land in index-ordered
// slots or in shard partials merged in fixed order, so floating-point
// accumulation never depends on scheduling.
//
// Determinism contract: for a fixed dataset, every Engine method returns
// a byte-identical result (under stable JSON encoding) at any Workers
// setting and across repeated runs. Map-keyed inputs are always iterated
// via sorted key lists, never raw map order.
type Engine struct {
	// Workers bounds the worker pool of the three passes that fan out
	// (<= 0: GOMAXPROCS).
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
