package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// spanID names one recorded span; noSpan is the parent of a root span.
type spanID int32

const noSpan spanID = -1

// Op ids group spans. Timed ops are numbered from 1; the layer probes and
// the setup carry the two reserved ids below.
const (
	opSetup = -1
	opProbe = 0
)

// span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's origin on the monotonic clock.
type span struct {
	ID     spanID        `json:"id"`
	Parent spanID        `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. All methods are
// safe for concurrent use, and a nil *tracer records nothing, so timed code
// calls it unconditionally and untraced runs pay only a nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now is the offset from the tracer's origin.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.origin)
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent spanID, op int) spanID {
	if t == nil {
		return noSpan
	}
	return t.add(name, parent, op, t.now(), -1)
}

func (t *tracer) end(id spanID) {
	if t == nil || id == noSpan {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(name string, parent spanID, op int, start, end time.Duration) spanID {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := spanID(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for each span, its duration minus the part of it that
// its children cover. Children may overlap one another (concurrent
// clients) or stick out of their parent; only the union of their
// intervals, clipped to the parent, is subtracted. spans[i].ID must be i.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, children[i])
	}
	return self
}

// covered is the length of [lo, hi) that the union of the intervals covers.
func covered(lo, hi time.Duration, ivs []span) time.Duration {
	slices.SortFunc(ivs, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total time.Duration
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv.Start, cur), min(iv.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByName sums, by span name, the self time of every span that belongs
// to one of the ops keep admits.
func selfByName(spans []span, keep func(op int) bool) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if keep(s.Op) {
			out[s.Name] += self[i]
		}
	}
	return out
}
