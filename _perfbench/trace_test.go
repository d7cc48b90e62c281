package main

import (
	"testing"
	"time"
)

func sp(id, parent spanID, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []time.Duration
	}{
		{
			name:  "leaf",
			spans: []span{sp(0, noSpan, 0, 10)},
			want:  []time.Duration{10},
		},
		{
			name: "nested chain",
			spans: []span{
				sp(0, noSpan, 0, 100),
				sp(1, 0, 10, 60),
				sp(2, 1, 20, 30),
			},
			want: []time.Duration{50, 40, 10},
		},
		{
			name: "disjoint children",
			spans: []span{
				sp(0, noSpan, 0, 100),
				sp(1, 0, 0, 10),
				sp(2, 0, 50, 70),
			},
			want: []time.Duration{70, 10, 20},
		},
		{
			// Concurrent children: their union, not their sum, is
			// subtracted.
			name: "overlapping children",
			spans: []span{
				sp(0, noSpan, 0, 100),
				sp(1, 0, 10, 50),
				sp(2, 0, 30, 70),
				sp(3, 0, 35, 40), // inside both
			},
			want: []time.Duration{40, 40, 40, 5},
		},
		{
			// A child sticking out of its parent is clipped to it.
			name: "child outside parent",
			spans: []span{
				sp(0, noSpan, 10, 20),
				sp(1, 0, 0, 15),
				sp(2, 0, 18, 40),
			},
			want: []time.Duration{3, 15, 22},
		},
		{
			// Grandchildren do not count against the grandparent twice.
			name: "grandchild inside child",
			spans: []span{
				sp(0, noSpan, 0, 100),
				sp(1, 0, 0, 50),
				sp(2, 1, 0, 50),
			},
			want: []time.Duration{50, 0, 50},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: span %d self %v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

func TestSelfByNameFiltersOps(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Op: 1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Op: 1, Name: "layer", Start: 0, End: 8},
		{ID: 2, Parent: noSpan, Op: opProbe, Name: "layer", Start: 20, End: 25},
		{ID: 3, Parent: noSpan, Op: 2, Name: "layer", Start: 30, End: 31},
	}
	got := selfByName(spans, func(op int) bool { return op >= 1 })
	if got["op"] != 2 || got["layer"] != 9 {
		t.Fatalf("self by name over ops: %v", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan, 1)
	tr.end(id)
	if id != noSpan || tr.add("y", noSpan, 1, 0, 1) != noSpan {
		t.Fatal("nil tracer returned a span id")
	}
}
