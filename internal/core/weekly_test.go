package core

import (
	"math"
	"testing"

	"wearwild/internal/simtime"
)

func TestWeeklyTrend(t *testing.T) {
	_, res := results(t) // shared Study.Run
	trend := res.Weekly

	if len(trend.Weeks) != simtime.DetailWeeks {
		t.Fatalf("weeks = %d, want %d", len(trend.Weeks), simtime.DetailWeeks)
	}
	// Every detail week carries traffic.
	for _, w := range trend.Weeks {
		if w.ActiveUsers == 0 || w.Tx == 0 || w.Bytes == 0 {
			t.Fatalf("empty week %d: %+v", w.Week, w)
		}
	}
	// "Transactions and data are evenly spread across days of the week":
	// each day-of-week share close to 1/7.
	var sum float64
	for dow, share := range trend.DayOfWeekTxShare {
		sum += share
		if math.Abs(share-1.0/7) > 0.05 {
			t.Fatalf("day-of-week %d tx share = %.3f, want ≈%.3f", dow, share, 1.0/7)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %g", sum)
	}
	// "All metrics are almost constants across days": daily totals vary
	// only modestly.
	if trend.TxCV <= 0 || trend.TxCV > 0.25 {
		t.Fatalf("daily tx CV = %.3f, want small but positive", trend.TxCV)
	}
	if trend.BytesCV <= 0 || trend.BytesCV > 0.4 {
		t.Fatalf("daily bytes CV = %.3f", trend.BytesCV)
	}
	// Week-over-week user counts stable (no trend inside 7 weeks).
	first, last := trend.Weeks[0].ActiveUsers, trend.Weeks[len(trend.Weeks)-1].ActiveUsers
	ratio := float64(last) / float64(first)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("weekly active users drifted: %d -> %d", first, last)
	}
}
