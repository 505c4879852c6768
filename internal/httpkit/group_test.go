package httpkit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flock/internal/randx"
)

// maxInto raises peak to n if n is larger.
func maxInto(peak *atomic.Int64, n int64) {
	for {
		p := peak.Load()
		if n <= p || peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func TestGroupBoundedConcurrency(t *testing.T) {
	g := NewGroup(context.Background(), 3)
	var cur, peak atomic.Int64
	for i := 0; i < 20; i++ {
		g.Go(func(context.Context) error {
			maxInto(&peak, cur.Add(1))
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > 3 {
		t.Fatalf("peak concurrency %d > 3", peak.Load())
	}
}

func TestGroupCollectsErrors(t *testing.T) {
	g := NewGroup(context.Background(), 2)
	for i := 0; i < 5; i++ {
		g.Go(func(context.Context) error {
			if i%2 == 0 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
	}
	err := g.Wait()
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("Wait = %v, want the joined task errors", err)
	}
	if n := len(joined.Unwrap()); n != 3 {
		t.Fatalf("joined %d errors, want 3", n)
	}
}

// TestGroupIdleLendsSlot: with one worker slot, a task waiting in Idle
// lets a task scheduled after it run to completion. A Group that kept
// the slot for the wait would only start the second task once the
// first gave up at the deadline.
func TestGroupIdleLendsSlot(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g := NewGroup(ctx, 1)
	waiting, second := make(chan struct{}), make(chan struct{})
	g.Go(func(ctx context.Context) error {
		return Idle(ctx, func() error {
			close(waiting)
			select {
			case <-second:
				return nil
			case <-ctx.Done():
				return fmt.Errorf("second task never ran while the first waited: %w", ctx.Err())
			}
		})
	})
	select {
	case <-waiting:
	case <-ctx.Done():
		t.Fatal("first task never reached its wait")
	}
	g.Go(func(context.Context) error {
		close(second)
		return nil
	})
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupBoundsRunningAndAliveTasks drives many tasks through rounds
// of work and seeded random waits. Outside a wait at most n tasks run;
// at most tasksPerSlot*n tasks exist, and more than n do, since waiting
// tasks hand their slots on.
func TestGroupBoundsRunningAndAliveTasks(t *testing.T) {
	const n, tasks, rounds = 3, 200, 4
	rng := randx.New(7)
	g := NewGroup(context.Background(), n)
	var running, peakRunning, alive, peakAlive atomic.Int64
	// enter marks a task running and works a little while, holding its
	// slot.
	enter := func() {
		r := running.Add(1)
		if r > n {
			t.Errorf("%d tasks running outside a wait, bound %d", r, n)
		}
		maxInto(&peakRunning, r)
		time.Sleep(50 * time.Microsecond)
	}
	for i := 0; i < tasks; i++ {
		waits := make([]time.Duration, rounds)
		for r := range waits {
			waits[r] = time.Duration(rng.Intn(2000)) * time.Microsecond
		}
		g.Go(func(ctx context.Context) error {
			defer alive.Add(-1)
			enter()
			for _, d := range waits {
				running.Add(-1)
				err := Idle(ctx, func() error { return SleepContext(ctx, d) })
				enter()
				if err != nil {
					return err
				}
			}
			running.Add(-1)
			return nil
		})
		// Counted once Go returns and uncounted by the task's last
		// statement, so the count never exceeds the tasks alive.
		maxInto(&peakAlive, alive.Add(1))
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peakAlive.Load(); p > tasksPerSlot*n || p <= n {
		t.Fatalf("peak tasks alive %d, want in (%d, %d]", p, n, tasksPerSlot*n)
	}
	t.Logf("peak running %d, peak alive %d", peakRunning.Load(), peakAlive.Load())
}

// TestGroupIdleCancelled: a task whose context is cancelled mid-wait
// returns the context error with its slot taken back, so the tasks after
// it still run, one at a time.
func TestGroupIdleCancelled(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g := NewGroup(ctx, 1)
	var cancelFirst context.CancelFunc
	waiting := make(chan struct{})
	g.Go(func(ctx context.Context) error {
		ctx, cancel := context.WithCancel(ctx)
		cancelFirst = cancel
		return Idle(ctx, func() error {
			close(waiting)
			<-ctx.Done()
			return ctx.Err()
		})
	})
	select {
	case <-waiting:
	case <-ctx.Done():
		t.Fatal("first task never reached its wait")
	}
	// One slot: this task runs only while the first one waits.
	g.Go(func(context.Context) error {
		cancelFirst()
		return nil
	})
	var running, ran atomic.Int64
	for i := 0; i < 5; i++ {
		g.Go(func(context.Context) error {
			if r := running.Add(1); r > 1 {
				t.Errorf("%d tasks running, bound 1", r)
			}
			time.Sleep(100 * time.Microsecond)
			running.Add(-1)
			ran.Add(1)
			return nil
		})
	}
	err := g.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want the cancelled task's context.Canceled", err)
	}
	if ctx.Err() != nil {
		t.Fatal("group deadline passed: a slot was lost")
	}
	if ran.Load() != 5 {
		t.Fatalf("%d of 5 later tasks ran", ran.Load())
	}
}

// TestIdleWithoutGroupJustWaits: outside a Group task (no slot in the
// context) Idle runs the wait and returns its error.
func TestIdleWithoutGroupJustWaits(t *testing.T) {
	want := errors.New("wait failed")
	if err := Idle(context.Background(), func() error { return want }); err != want {
		t.Fatalf("Idle = %v, want %v", err, want)
	}
}

// TestDoBackoffLendsGroupSlot: a retry backoff inside a Group task is a
// wait, so with one worker slot a task scheduled after it runs during
// the backoff.
func TestDoBackoffLendsGroupSlot(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	backingOff, second := make(chan struct{}), make(chan struct{})
	c := New(
		WithDoer(&fakeDoer{fn: func(call int, _ *http.Request) (*http.Response, error) {
			if call == 1 {
				return respond(503, "", nil), nil
			}
			return respond(200, "ok", nil), nil
		}}),
		WithSleep(func(ctx context.Context, _ time.Duration) error {
			close(backingOff)
			select {
			case <-second:
				return nil
			case <-ctx.Done():
				return fmt.Errorf("second task never ran during the backoff: %w", ctx.Err())
			}
		}),
	)
	g := NewGroup(ctx, 1)
	g.Go(func(ctx context.Context) error {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "https://x.example/", nil)
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	select {
	case <-backingOff:
	case <-ctx.Done():
		t.Fatal("first task never backed off")
	}
	g.Go(func(context.Context) error {
		close(second)
		return nil
	})
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}

// goid returns the calling goroutine's id, from the first line of its
// stack trace ("goroutine 18 [running]:").
func goid() string {
	var buf [64]byte
	line := buf[:runtime.Stack(buf[:], false)]
	line, _, _ = bytes.Cut(bytes.TrimPrefix(line, []byte("goroutine ")), []byte(" "))
	return string(line)
}

// TestGroupReusesWorkers: quick tasks run on at most tasksPerSlot*n
// worker goroutines, not one goroutine each, and the workers are gone
// once Wait returns.
func TestGroupReusesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewGroup(context.Background(), 1)
	var mu sync.Mutex
	ids := map[string]bool{}
	for i := 0; i < 200; i++ {
		g.Go(func(context.Context) error {
			id := goid()
			mu.Lock()
			ids[id] = true
			mu.Unlock()
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(ids) > tasksPerSlot {
		t.Fatalf("200 tasks ran on %d goroutines, want at most %d", len(ids), tasksPerSlot)
	}
	// A worker leaves the WaitGroup as its last act, so it may still be
	// exiting when Wait returns; give the runtime a moment to reap it.
	// Goroutines of earlier tests may exit meanwhile, so fewer is fine.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Wait, %d before NewGroup", n, before)
	}
	t.Logf("200 tasks on %d goroutines", len(ids))
}
