package main

import (
	"runtime"
	"time"

	"wearwild"
	"wearwild/internal/core"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
	"wearwild/internal/stream"
)

// Span names of the study engine's phases as the wrapping source sees them.
// With one worker the engine folds records inside the sink callbacks, so
// record callbacks are routing and UserDone callbacks are eviction; with
// more workers the callbacks only hand records to the shard goroutines, so
// their time is the time the source waits on that handoff.
const (
	spanStudy    = "core.RunStream"
	spanNewStudy = "core.NewStudy"
	spanStream   = "stream.Logs.Stream"
	spanFinalize = "core.finalize"
	spanRoute    = "core.route"
	spanEvict    = "core.evict"
	spanHandoff  = "core.handoff"
)

// studySpans are the spans one traced study recorded, with its counts.
type studySpans struct {
	study, stream, finalize spanID
	records, users          int64
}

// tracedStudy does the work of wearwild.RunStudy — core.NewStudy, then
// core.RunStream over the dataset's resident logs — with the given worker
// bound, timing the engine's phases from outside: the stream span covers
// the source and every sink callback, finalize runs from the return of
// Stream to the return of RunStream (seal, shard merge, finalize).
func tracedStudy(tr *tracer, parent spanID, op int, ds *wearwild.Dataset, workers int) (*core.Results, studySpans, error) {
	cfg := core.DefaultConfig()
	cfg.Workers = workers
	s := tr.begin(spanNewStudy, parent, op)
	_, err := core.NewStudy(ds, cfg)
	tr.end(s)
	if err != nil {
		return nil, studySpans{}, err
	}

	recordName, doneName := spanRoute, spanEvict
	if resolveWorkers(workers) > 1 {
		recordName, doneName = spanHandoff, spanHandoff
	}
	ss := studySpans{study: tr.begin(spanStudy, parent, op)}
	src := &timedSource{
		inner:      &stream.Logs{Proxy: &ds.Proxy, MME: &ds.MME, UDR: &ds.UDR},
		tr:         tr,
		parent:     ss.study,
		op:         op,
		recordName: recordName,
		doneName:   doneName,
	}
	env := core.Env{Devices: ds.Devices, Topology: ds.Topology, Catalog: ds.Catalog}
	res, err := core.RunStream(env, src, cfg)
	ss.finalize = tr.add(spanFinalize, ss.study, op, src.streamEnd, tr.now())
	tr.end(ss.study)
	ss.stream, ss.records, ss.users = src.span, src.sink.records, src.sink.users
	return res, ss, err
}

// resolveWorkers applies the engine's rule for a zero worker bound.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// timedSource wraps a stream.Source and times every callback its sink
// receives.
type timedSource struct {
	inner                stream.Source
	tr                   *tracer
	parent               spanID
	op                   int
	recordName, doneName string

	span      spanID
	streamEnd time.Duration
	sink      *timedSink
}

func (s *timedSource) Stream(sink stream.Sink) error {
	s.span = s.tr.begin(spanStream, s.parent, s.op)
	s.sink = &timedSink{inner: sink, tr: s.tr, parent: s.span, op: s.op,
		recordName: s.recordName, doneName: s.doneName, first: -1}
	err := s.inner.Stream(s.sink)
	s.sink.flush()
	s.tr.end(s.span)
	s.streamEnd = s.tr.now()
	return err
}

// timedSink forwards to the engine's sink and records the time spent in
// it. A span per record would cost more than the records; instead one
// subscriber's record callbacks become one span whose length is their
// summed time, placed at the first callback. The subscriber's callbacks
// all precede its UserDone, so these compressed spans never overlap the
// UserDone spans or each other, and a parent's self time stays exact.
type timedSink struct {
	inner                stream.Sink
	tr                   *tracer
	parent               spanID
	op                   int
	recordName, doneName string

	first          time.Duration // start of the pending callbacks; -1 if none
	busy           time.Duration // their summed time
	records, users int64
}

func (s *timedSink) done(t0 time.Duration) {
	if s.first < 0 {
		s.first = t0
	}
	s.busy += s.tr.now() - t0
	s.records++
}

// flush emits the pending compressed span.
func (s *timedSink) flush() {
	if s.first >= 0 {
		s.tr.add(s.recordName, s.parent, s.op, s.first, s.first+s.busy)
		s.first, s.busy = -1, 0
	}
}

func (s *timedSink) Proxy(r proxylog.Record) error {
	t0 := s.tr.now()
	err := s.inner.Proxy(r)
	s.done(t0)
	return err
}

func (s *timedSink) MME(r mme.Record) error {
	t0 := s.tr.now()
	err := s.inner.MME(r)
	s.done(t0)
	return err
}

func (s *timedSink) UDR(r udr.Record) error {
	t0 := s.tr.now()
	err := s.inner.UDR(r)
	s.done(t0)
	return err
}

func (s *timedSink) UserDone(imsi subs.IMSI) error {
	s.flush()
	t0 := s.tr.now()
	err := s.inner.UserDone(imsi)
	s.tr.add(s.doneName, s.parent, s.op, t0, s.tr.now())
	s.users++
	return err
}
