package analysis

import (
	"sort"

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
