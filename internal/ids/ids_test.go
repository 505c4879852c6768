package ids

import (
	"testing"
	"testing/quick"
	"time"
)

// Shard extracts the shard bits.
func (s Snowflake) Shard() int {
	return int((s >> 12) & 0x3ff)
}

func TestMonotonicWithinMillisecond(t *testing.T) {
	g := NewGenerator(1)
	at := time.Date(2022, 10, 27, 12, 0, 0, 0, time.UTC)
	var prev Snowflake
	for i := 0; i < 5000; i++ {
		id := g.At(at)
		if id <= prev {
			t.Fatalf("ID not strictly increasing at i=%d: %d <= %d", i, id, prev)
		}
		prev = id
	}
}

func TestMonotonicAcrossTime(t *testing.T) {
	g := NewGenerator(2)
	at := time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC)
	var prev Snowflake
	for i := 0; i < 1000; i++ {
		id := g.At(at)
		if id <= prev {
			t.Fatalf("not monotonic at step %d", i)
		}
		prev = id
		at = at.Add(time.Duration(i%3) * time.Millisecond)
	}
}

func TestBackwardsClockStaysMonotonic(t *testing.T) {
	g := NewGenerator(3)
	late := time.Date(2022, 11, 1, 0, 0, 0, 0, time.UTC)
	early := late.Add(-time.Hour)
	a := g.At(late)
	b := g.At(early)
	if b <= a {
		t.Fatalf("backwards clock broke monotonicity: %d <= %d", b, a)
	}
}

func TestTimeRecovery(t *testing.T) {
	g := NewGenerator(4)
	at := time.Date(2022, 11, 17, 8, 30, 15, 250_000_000, time.UTC)
	id := g.At(at)
	got := id.Time()
	if d := got.Sub(at); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("recovered time %s differs from %s by %s", got, at, d)
	}
}

func TestShardRecovery(t *testing.T) {
	for _, shard := range []int{0, 1, 511, 1023} {
		g := NewGenerator(shard)
		id := g.At(time.Date(2022, 10, 15, 0, 0, 0, 0, time.UTC))
		if id.Shard() != shard {
			t.Fatalf("shard %d recovered as %d", shard, id.Shard())
		}
	}
}

func TestShardPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGenerator(1024) did not panic")
		}
	}()
	NewGenerator(1024)
}

func TestStringParseRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		s := Snowflake(raw >> 1) // keep in 63-bit range
		got, err := Parse(s.String())
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"", "abc", "-5", "12.3"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded", bad)
		}
	}
}

func TestOrderingFollowsTime(t *testing.T) {
	g := NewGenerator(5)
	early := g.At(time.Date(2022, 10, 1, 0, 0, 0, 0, time.UTC))
	late := g.At(time.Date(2022, 11, 30, 0, 0, 0, 0, time.UTC))
	if early >= late {
		t.Fatal("earlier timestamp did not yield smaller ID")
	}
	if !early.Time().Before(late.Time()) {
		t.Fatal("embedded times out of order")
	}
}

func BenchmarkAt(b *testing.B) {
	g := NewGenerator(1)
	at := time.Date(2022, 10, 27, 0, 0, 0, 0, time.UTC)
	for i := 0; i < b.N; i++ {
		_ = g.At(at)
	}
}
