package vclock

import (
	"testing"
	"time"
)

func TestDayBuckets(t *testing.T) {
	if Day(StudyStart) != 0 {
		t.Fatalf("Day(StudyStart) = %d", Day(StudyStart))
	}
	if Day(StudyStart.Add(36*time.Hour)) != 1 {
		t.Fatal("36h after start should be day 1")
	}
	if Day(StudyEnd) != StudyDays-1 {
		t.Fatalf("Day(StudyEnd) = %d, want %d", Day(StudyEnd), StudyDays-1)
	}
}

func TestDayStartRoundTrip(t *testing.T) {
	for d := 0; d < StudyDays; d++ {
		if Day(DayStart(d)) != d {
			t.Fatalf("round trip failed for day %d", d)
		}
	}
}

func TestWeekAnchoredOnMonday(t *testing.T) {
	if WeekStart(0).Weekday() != time.Monday {
		t.Fatal("week anchor is not a Monday")
	}
	if Week(StudyStart) != 0 {
		t.Fatalf("Week(StudyStart) = %d", Week(StudyStart))
	}
	w := Week(Takeover)
	if WeekStart(w).After(Takeover) || !Takeover.Before(WeekStart(w+1)) {
		t.Fatal("Takeover not inside its own week bucket")
	}
}

func TestEventOrdering(t *testing.T) {
	order := []time.Time{StudyStart, CollectionStart, Takeover, Layoffs, Ultimatum, CollectionEnd, StudyEnd, CrawlTime}
	for i := 1; i < len(order); i++ {
		if !order[i-1].Before(order[i]) {
			t.Fatalf("event %d not after event %d", i, i-1)
		}
	}
}

func TestPostTakeover(t *testing.T) {
	if PostTakeover(Takeover.Add(-time.Minute)) {
		t.Fatal("minute before takeover flagged post-takeover")
	}
	if !PostTakeover(Takeover) {
		t.Fatal("takeover instant not post-takeover")
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(StudyStart)
	c.Advance(2 * time.Hour)
	if got := c.Now(); !got.Equal(StudyStart.Add(2 * time.Hour)) {
		t.Fatalf("Now = %s", got)
	}
	c.SetAt(Takeover)
	if !c.Now().Equal(Takeover) {
		t.Fatal("SetAt failed")
	}
}

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if !c.Now().Equal(StudyStart) {
		t.Fatal("zero clock should start at StudyStart")
	}
}

func TestClockPanicsOnBackwards(t *testing.T) {
	c := NewClock(Takeover)
	defer func() {
		if recover() == nil {
			t.Fatal("SetAt backwards did not panic")
		}
	}()
	c.SetAt(StudyStart)
}

func TestClockPanicsOnNegativeAdvance(t *testing.T) {
	c := NewClock(StudyStart)
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestFormatDay(t *testing.T) {
	if got := FormatDay(Takeover); got != "Oct 27" {
		t.Fatalf("FormatDay = %q", got)
	}
}
