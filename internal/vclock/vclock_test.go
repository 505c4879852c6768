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

func TestFormatDay(t *testing.T) {
	if got := FormatDay(Takeover); got != "Oct 27" {
		t.Fatalf("FormatDay = %q", got)
	}
}
