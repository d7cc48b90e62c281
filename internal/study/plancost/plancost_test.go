package plancost

import (
	"math"
	"testing"

	"wearwild/internal/gen/apps"
)

// testKinds is one user's raw per-kind bytes over the window: 7000 bytes
// of first-party traffic, 2000 of advertising and 1000 of analytics.
func testKinds() *[apps.NumDomainKinds]int64 {
	var k [apps.NumDomainKinds]int64
	k[apps.KindApplication] = 7000
	k[apps.KindAdvertising] = 2000
	k[apps.KindAnalytics] = 1000
	return &k
}

func TestAnalyze(t *testing.T) {
	// 3 days of observation, a 1 MB plan for easy numbers.
	b, err := NewBuilder(3, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	b.AddUser(testKinds())
	rep := b.Report()
	// Overhead = (2000+1000)/10000 of the traffic.
	if math.Abs(rep.MeanOverheadShare-0.3) > 1e-9 {
		t.Fatalf("overhead share = %g", rep.MeanOverheadShare)
	}
	// Monthly overhead = 3000 * 30.44/3 = 30440 bytes of a 1 MiB plan.
	wantPlan := 3000.0 * (30.44 / 3) / (1 << 20)
	if math.Abs(rep.MeanPlanSharePct-100*wantPlan) > 1e-9 {
		t.Fatalf("mean plan pct = %g, want %g", rep.MeanPlanSharePct, 100*wantPlan)
	}
	if rep.MaxPlanSharePct != rep.MeanPlanSharePct {
		t.Fatal("single user: max must equal mean")
	}

	// A second user with no overhead halves the means but not the max.
	var clean [apps.NumDomainKinds]int64
	clean[apps.KindApplication] = 500
	b, _ = NewBuilder(3, 1<<20)
	b.AddUser(testKinds())
	b.AddUser(&clean)
	two := b.Report()
	if math.Abs(two.MeanOverheadShare-0.15) > 1e-9 {
		t.Fatalf("two-user overhead share = %g", two.MeanOverheadShare)
	}
	if two.MaxPlanSharePct != rep.MaxPlanSharePct {
		t.Fatalf("two-user max = %g, want %g", two.MaxPlanSharePct, rep.MaxPlanSharePct)
	}
}

func TestAnalyzeDefaults(t *testing.T) {
	b, err := NewBuilder(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep := b.Report(); rep.PlanBytes != DefaultPlanBytes {
		t.Fatalf("plan = %g", rep.PlanBytes)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := NewBuilder(0, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	// No users, and a user with no traffic at all: the report stays zero.
	b, err := NewBuilder(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep := b.Report(); rep.MeanOverheadShare != 0 || rep.MeanPlanSharePct != 0 || rep.MaxPlanSharePct != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
	b, _ = NewBuilder(3, 0)
	b.AddUser(new([apps.NumDomainKinds]int64))
	if rep := b.Report(); rep.MeanOverheadShare != 0 || rep.MaxPlanSharePct != 0 {
		t.Fatalf("silent-user report = %+v", rep)
	}
}
