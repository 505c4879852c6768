package parallel

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
)

var workerSweep = []int{1, 2, 3, 4, 8, 16}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Fatal("default workers must be positive")
	}
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
}

func TestMapSliceOrderPreserved(t *testing.T) {
	for _, w := range workerSweep {
		const n = 257
		calls := make([]atomic.Int32, n)
		got := MapSlice(w, n, func(i int) int {
			calls[i].Add(1)
			return i * i
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d slot %d = %d", w, i, v)
			}
			if c := calls[i].Load(); c != 1 {
				t.Fatalf("workers=%d index %d called %d times", w, i, c)
			}
		}
	}
}

func TestMapSliceEmpty(t *testing.T) {
	if out := MapSlice(4, 0, func(i int) int { return i }); out != nil {
		t.Fatalf("empty map returned %v", out)
	}
}

// TestFloatFoldBitIdentical is the contract's core promise: folding
// MapSlice slots serially gives bit-identical floating-point sums at
// every worker count (the naive atomic/racy alternative would not).
func TestFloatFoldBitIdentical(t *testing.T) {
	const n = 4096
	item := func(i int) float64 { return math.Sin(float64(i)) * 1e-3 / (float64(i) + 0.1) }
	var want float64
	for i := 0; i < n; i++ {
		want += item(i)
	}
	for _, w := range workerSweep {
		slots := MapSlice(w, n, item)
		var got float64
		for _, v := range slots {
			got += v
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d sum %x != serial %x", w, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestReduceShardedNonCommutativeMerge proves shard boundaries and merge
// order are worker-independent even for an order-sensitive merge
// (string concatenation).
func TestReduceShardedNonCommutativeMerge(t *testing.T) {
	const n = 517
	reduce := func(lo, hi int) string {
		var b strings.Builder
		for i := lo; i < hi; i++ {
			b.WriteByte(byte('a' + i%26))
		}
		return b.String()
	}
	merge := func(a, b string) string { return a + b }
	want := reduce(0, n)
	for _, w := range workerSweep {
		if got := ReduceSharded(w, n, reduce, merge); got != want {
			t.Fatalf("workers=%d sharded concat differs from serial", w)
		}
	}
}

func TestReduceShardedFloatBitIdentical(t *testing.T) {
	const n = 3000
	reduce := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += 1 / (float64(i) + 1.5)
		}
		return s
	}
	merge := func(a, b float64) float64 { return a + b }
	want := ReduceSharded(1, n, reduce, merge)
	for _, w := range workerSweep {
		got := ReduceSharded(w, n, reduce, merge)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d sum differs in final bits", w)
		}
	}
}

func TestReduceShardedEmpty(t *testing.T) {
	got := ReduceSharded(4, 0,
		func(lo, hi int) int { t.Fatal("reduce called"); return 0 },
		func(a, b int) int { t.Fatal("merge called"); return 0 })
	if got != 0 {
		t.Fatalf("empty reduce = %d", got)
	}
}

func TestShardBoundsCoverExactly(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 1000, 64*1024 + 7} {
		bounds := shardBounds(n)
		next := 0
		for _, b := range bounds {
			if b[0] != next || b[1] <= b[0] {
				t.Fatalf("n=%d bad shard %v after %d", n, b, next)
			}
			next = b[1]
		}
		if next != n {
			t.Fatalf("n=%d shards cover %d", n, next)
		}
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic not propagated")
		}
	}()
	MapSlice(4, 100, func(i int) int {
		if i == 37 {
			panic("boom")
		}
		return i
	})
}

func TestPanicPropagatesSerial(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("serial panic not propagated")
		}
	}()
	MapSlice(1, 10, func(i int) int { panic("boom") })
}
