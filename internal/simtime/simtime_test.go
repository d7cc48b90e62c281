package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEpochIsMonday(t *testing.T) {
	if Epoch.Weekday() != time.Monday {
		t.Fatalf("epoch weekday = %v, want Monday", Epoch.Weekday())
	}
	if Day(0).Weekday() != time.Monday {
		t.Fatalf("day 0 weekday = %v", Day(0).Weekday())
	}
}

func TestWindowSizes(t *testing.T) {
	if StudyDays != 154 {
		t.Fatalf("study days = %d, want 154 (22 weeks)", StudyDays)
	}
	if DetailDays != 49 {
		t.Fatalf("detail days = %d, want 49 (7 weeks)", DetailDays)
	}
	if DetailStartDay != 105 {
		t.Fatalf("detail start = %d", DetailStartDay)
	}
	if FullStudy().Days() != StudyDays || Detail().Days() != DetailDays {
		t.Fatal("window day counts disagree with constants")
	}
	if FullStudy().Weeks() != StudyWeeks || Detail().Weeks() != DetailWeeks {
		t.Fatal("window week counts disagree with constants")
	}
}

func TestHourDayRoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		h := Hour(int(raw) % (StudyDays * HoursPerDay))
		d := h.Day()
		if d.Start() > h || d.Start()+HoursPerDay <= h {
			return false
		}
		return HourOf(h.Time()) == h && DayOf(d.Time()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeekend(t *testing.T) {
	// Day 0 = Monday ... day 5 = Saturday, day 6 = Sunday.
	for d := Day(0); d < 5; d++ {
		if d.IsWeekend() {
			t.Fatalf("day %d should be a weekday", d)
		}
	}
	if !Day(5).IsWeekend() || !Day(6).IsWeekend() {
		t.Fatal("days 5/6 should be weekend")
	}
	if Day(7).IsWeekend() {
		t.Fatal("day 7 should be Monday again")
	}
}

func TestDetailWindowMembership(t *testing.T) {
	if Day(DetailStartDay - 1).InDetailWindow() {
		t.Fatal("day before detail window flagged as inside")
	}
	if !Day(DetailStartDay).InDetailWindow() {
		t.Fatal("detail start day not inside")
	}
	if !Day(StudyDays - 1).InDetailWindow() {
		t.Fatal("last study day not inside")
	}
	if Day(StudyDays).InDetailWindow() {
		t.Fatal("day past study end flagged as inside")
	}
}

func TestFirstLastWeek(t *testing.T) {
	w := FullStudy()
	fw := w.FirstWeek()
	if fw.Start != 0 || fw.End != 7 {
		t.Fatalf("first week = %+v", fw)
	}
	lw := w.LastWeek()
	if lw.Start != StudyDays-7 || lw.End != StudyDays {
		t.Fatalf("last week = %+v", lw)
	}
	if !fw.Contains(0) || fw.Contains(7) {
		t.Fatal("first-week membership wrong")
	}

	tiny := Window{Start: 3, End: 6}
	if got := tiny.FirstWeek(); got != tiny {
		t.Fatalf("first week of short window = %+v", got)
	}
	if got := tiny.LastWeek(); got != tiny {
		t.Fatalf("last week of short window = %+v", got)
	}
}

func TestWeekFirstDay(t *testing.T) {
	if Week(0).FirstDay() != 0 || Week(3).FirstDay() != 21 {
		t.Fatal("week first day arithmetic wrong")
	}
	if Day(20).Week() != 2 || Day(21).Week() != 3 {
		t.Fatal("day-to-week arithmetic wrong")
	}
}
