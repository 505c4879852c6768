// Package parallel provides the repo's deterministic map-reduce kernels:
// bounded-worker fan-out primitives whose outputs are bit-identical to a
// serial execution, for any worker count, on every run.
//
// # The determinism contract
//
// Every combinator guarantees that its result is a pure function of
// (n, the per-index callbacks) — never of the worker count, the
// scheduler's interleaving, or which goroutine happened to process which
// index. The guarantee rests on two rules:
//
//  1. MapSlice writes each index's result into its own pre-allocated
//     slot, so output order is index order regardless of completion
//     order. Callers that fold the slots afterwards do so serially in
//     index order, which keeps floating-point accumulation order fixed.
//
//  2. ReduceSharded splits [0, n) into shards whose boundaries depend
//     only on n (never on the worker count), processes each shard
//     serially in ascending index order, and merges the per-shard
//     partials in ascending shard order after every shard completes.
//     Even a non-commutative merge (floating-point sums, ordered
//     appends) therefore sees the exact same operand sequence at any
//     parallelism level.
//
// Scheduling is dynamic (workers pull chunks off a shared atomic
// cursor), so a skewed workload — e.g. the quadratic per-user loop of
// the Fig. 14 similarity analysis — still load-balances without
// sacrificing the contract: dynamic assignment decides only *who*
// computes an index, never *where* its result lands.
//
// Worker counts default to GOMAXPROCS and are overridable per call
// (tests pin 1, 2, 8 to prove the byte-identical property; benchmarks
// sweep them for the ablation curves). Workers(0) resolves the default.
//
// All concurrency outside the transport layers flows through these
// kernels: set-up's post generation and search index build, and the
// analysis downstream of the crawl. The fedilint `goroutine` analyzer
// enforces that naked `go` statements stay confined to this package and
// the transport layers (see LINT.md).
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean
// GOMAXPROCS, anything else is returned unchanged.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// shardBounds returns the half-open index ranges ReduceSharded uses.
// Boundaries are a pure function of n — NEVER of the worker count — so
// merge operand grouping is identical at every parallelism level. Shards
// target shardSize indexes; the count is capped so partial-merge
// overhead stays bounded on huge inputs.
func shardBounds(n int) [][2]int {
	if n <= 0 {
		return nil
	}
	const shardSize = 64
	const maxShards = 1024
	shards := (n + shardSize - 1) / shardSize
	if shards > maxShards {
		shards = maxShards
	}
	out := make([][2]int, 0, shards)
	for s := 0; s < shards; s++ {
		lo := s * n / shards
		hi := (s + 1) * n / shards
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// run executes tasks 0..tasks-1 on a bounded pool, pulling task indexes
// off a shared cursor. fn must confine itself to per-task state. A panic
// in any worker is captured and re-raised on the caller's goroutine once
// every worker has drained, so no work is silently lost mid-flight.
func run(workers, tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > tasks {
		workers = tasks
	}
	if workers <= 1 {
		for t := 0; t < tasks; t++ {
			fn(t)
		}
		return
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
		panicO sync.Once
		panicV any
	)
	body := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicO.Do(func() { panicV = r })
				// Park the cursor past the end so siblings drain fast.
				cursor.Store(int64(tasks))
			}
		}()
		for {
			t := int(cursor.Add(1)) - 1
			if t >= tasks {
				return
			}
			fn(t)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go body()
	}
	wg.Wait()
	if panicV != nil {
		panic(fmt.Sprintf("parallel: worker panicked: %v", panicV))
	}
}

// MapSlice evaluates fn over [0, n) and returns the results in index
// order: out[i] = fn(i) regardless of scheduling. This is the kernel for
// per-item heavy loops whose per-item results are folded serially
// afterwards (keeping float accumulation order fixed).
func MapSlice[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	run(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// ReduceSharded folds [0, n) through per-shard partial accumulators.
// reduce processes one shard serially in ascending index order and
// returns its partial; merge combines two partials (left operand is the
// lower shard). Shard boundaries depend only on n, and partials merge in
// ascending shard order, so the operand sequence — and hence the result,
// even for non-commutative merges — is independent of the worker count.
// The zero value of A is returned when n <= 0.
func ReduceSharded[A any](workers, n int, reduce func(lo, hi int) A, merge func(a, b A) A) A {
	var zero A
	bounds := shardBounds(n)
	if len(bounds) == 0 {
		return zero
	}
	partials := make([]A, len(bounds))
	run(workers, len(bounds), func(s int) {
		partials[s] = reduce(bounds[s][0], bounds[s][1])
	})
	acc := partials[0]
	for s := 1; s < len(partials); s++ {
		acc = merge(acc, partials[s])
	}
	return acc
}
