package main

import (
	"testing"

	"wearwild"
)

func tinyDataset(t *testing.T, seed uint64) *wearwild.Dataset {
	t.Helper()
	cfg := wearwild.SmallConfig(seed)
	cfg.Population.WearableUsers = 250
	cfg.Population.OrdinaryUsers = 600
	cfg.Cells.UrbanSectors = 250
	cfg.Cells.RuralSectors = 100
	cfg.OrdinaryMobilitySample = 250
	ds, err := wearwild.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestTracedStudyMatchesRunStudy pins that timing the engine from outside
// changes nothing it computes: the wrapped source and sink leave the
// Results byte-identical to wearwild.RunStudy, at one worker and at several.
func TestTracedStudyMatchesRunStudy(t *testing.T) {
	ds := tinyDataset(t, 42)
	res, err := wearwild.RunStudy(ds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fingerprint(res)
	if err != nil {
		t.Fatal(err)
	}
	records := datasetRecords(ds)
	for _, workers := range []int{1, 2, 4} {
		tr := newTracer()
		got, ss, err := tracedStudy(tr, noSpan, 1, ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := fingerprint(got)
		if err != nil {
			t.Fatal(err)
		}
		if fp != want {
			t.Errorf("workers=%d: traced results sha256 %s, RunStudy %s", workers, fp, want)
		}
		if ss.records != records {
			t.Errorf("workers=%d: sink saw %d records, dataset has %d", workers, ss.records, records)
		}
		if ss.users == 0 {
			t.Errorf("workers=%d: no UserDone callbacks seen", workers)
		}

		// Every phase span lies inside the study span, and the study
		// span's children leave it almost no self time.
		spans := tr.snapshot()
		study := spans[ss.study]
		for _, id := range []spanID{ss.stream, ss.finalize} {
			if s := spans[id]; s.Start < study.Start || s.End > study.End || s.Parent != ss.study {
				t.Errorf("workers=%d: span %s [%v,%v] is not inside %s [%v,%v]",
					workers, s.Name, s.Start, s.End, study.Name, study.Start, study.End)
			}
		}
		names := map[string]int{}
		for _, s := range spans {
			names[s.Name]++
		}
		if workers == 1 && (names[spanRoute] == 0 || names[spanEvict] == 0 || names[spanHandoff] != 0) {
			t.Errorf("workers=1: want route and evict spans only, got %v", names)
		}
		if workers > 1 && (names[spanHandoff] == 0 || names[spanRoute] != 0 || names[spanEvict] != 0) {
			t.Errorf("workers=%d: want handoff spans only, got %v", workers, names)
		}
	}
}
