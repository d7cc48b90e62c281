package main

import (
	"errors"
	"testing"

	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/replay"
)

func rec(scheme proxylog.Scheme, host string) proxylog.Record {
	return proxylog.Record{Scheme: scheme, Host: host, BytesDown: 100}
}

// TestClassifyFlows pins the four ways a replayed flow fails.
func TestClassifyFlows(t *testing.T) {
	a := rec(proxylog.HTTPS, "a.example")
	b := rec(proxylog.HTTP, "b.example")
	c := rec(proxylog.HTTPS, "c.example")
	cut := a
	cut.Drop = proxylog.DropIdle
	wrongScheme := rec(proxylog.HTTP, "c.example")
	wrongHost := rec(proxylog.HTTPS, "x.example")
	flows := func(err error, rs ...proxylog.Record) []flow {
		out := make([]flow, len(rs))
		for i, r := range rs {
			out[i] = flow{rec: r}
		}
		if err != nil {
			out[0].err = err
		}
		return out
	}

	cases := []struct {
		name     string
		flows    []flow
		captured []proxylog.Record
		want     flowFailures
		failed   int
	}{
		{"clean", flows(nil, a, b, c), []proxylog.Record{c, a, b}, flowFailures{hostMatch: 1}, 0},
		{"error", flows(errors.New("reset"), a, b), []proxylog.Record{a, b}, flowFailures{errors: 1, hostMatch: 1}, 1},
		{"uncaptured", flows(nil, a, b, c), []proxylog.Record{a, c}, flowFailures{uncaptured: 1, hostMatch: 2.0 / 3}, 1},
		{"truncated", flows(nil, a, b), []proxylog.Record{cut, b}, flowFailures{truncated: 1, hostMatch: 1}, 1},
		{"scheme mismatch", flows(nil, a, c), []proxylog.Record{a, wrongScheme}, flowFailures{mismatched: 1, hostMatch: 0.5}, 1},
		{"host mismatch", flows(nil, a, c), []proxylog.Record{wrongHost, a}, flowFailures{mismatched: 1, hostMatch: 0.5}, 1},
		{"duplicate hosts match as a multiset", flows(nil, a, a, b), []proxylog.Record{a, b, b}, flowFailures{mismatched: 1, hostMatch: 2.0 / 3}, 1},
		{"capped at attempted", flows(errors.New("eof"), a), nil, flowFailures{errors: 1, uncaptured: 1}, 1},
	}
	for _, c := range cases {
		got := classifyFlows(c.flows, c.captured)
		if got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, c.want)
		}
		if n := got.failed(len(c.flows)); n != c.failed {
			t.Errorf("%s: failed %d, want %d", c.name, n, c.failed)
		}
	}
}

// TestReplayLoopThroughProxy drives a short closed loop through a real
// harness on loopback, with a tracer shared by the clients: every flow is
// captured clean, and each flow is one op with one child span.
func TestReplayLoopThroughProxy(t *testing.T) {
	h, err := replay.NewHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	recs := []proxylog.Record{
		rec(proxylog.HTTPS, "api.example.com"),
		{Scheme: proxylog.HTTP, Host: "cdn.example.com", Path: "/x", BytesDown: 2000},
		rec(proxylog.HTTPS, "push.example.com"),
	}
	const limit = 40
	tr := newTracer()
	run := replayLoop(h, recs, 2, 0, limit, tr, 1)
	if len(run.flows) != limit {
		t.Fatalf("%d flows, want %d", len(run.flows), limit)
	}
	captured, _ := drain(h, 0, limit, run.lastReturn)
	if f := classifyFlows(run.flows, captured); f.failed(limit) != 0 || f.hostMatch != 1 {
		t.Fatalf("failures %+v", f)
	}
	ops := map[int]int{}
	for _, s := range tr.snapshot() {
		if s.End < s.Start {
			t.Fatalf("span %s left open", s.Name)
		}
		ops[s.Op]++
	}
	if len(ops) != limit {
		t.Fatalf("spans cover %d ops, want %d", len(ops), limit)
	}
	for op, n := range ops {
		if n != 2 {
			t.Errorf("op %d has %d spans, want 2", op, n)
		}
	}
}
