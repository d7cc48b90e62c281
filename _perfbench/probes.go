package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wearwild"
	"wearwild/internal/gen/sim"
	"wearwild/internal/geo"
	"wearwild/internal/mnet/cells"
	"wearwild/internal/mnet/mme"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/replay"
	"wearwild/internal/mnet/subs"
	"wearwild/internal/mnet/udr"
)

// Nearest-sector probe parameters: query points are MME sector positions
// moved up to jitterKm east and north, and every nearestStride-th point is
// cross-checked against the brute-force lookup.
const (
	jitterKm      = 3.0
	nearestStride = 64
)

// nearestPoints derives the probe's query points from the seed: each MME
// record's sector position, moved by a seeded jitter.
func nearestPoints(topo *cells.Topology, recs []mme.Record, seed uint64) []geo.Point {
	rng := rand.New(rand.NewPCG(seed, 0x6e656172657374)) // "nearest"
	pts := make([]geo.Point, 0, len(recs))
	for _, r := range recs {
		s, ok := topo.Sector(r.Sector)
		if !ok {
			continue
		}
		east := (2*rng.Float64() - 1) * jitterKm
		north := (2*rng.Float64() - 1) * jitterKm
		pts = append(pts, geo.Offset(s.Pos, east, north))
	}
	return pts
}

// nearestMismatches counts sampled points where the indexed lookup's
// distance differs from the brute-force one. Ties between equidistant
// sectors are not mismatches.
func nearestMismatches(topo *cells.Topology, pts []geo.Point) (bad, checked int) {
	dist := func(p geo.Point, id cells.SectorID) float64 {
		s, _ := topo.Sector(id)
		return geo.DistanceKm(p, s.Pos)
	}
	for i := 0; i < len(pts); i += nearestStride {
		p := pts[i]
		if dist(p, topo.Nearest(p)) != dist(p, topo.NearestLinear(p)) {
			bad++
		}
		checked++
	}
	return bad, checked
}

// checkNearest runs the nearest-sector cross-check on a dataset and prints
// it; any mismatch fails the run.
func checkNearest(out io.Writer, ds *wearwild.Dataset, seed uint64) bool {
	bad, checked := nearestMismatches(ds.Topology, nearestPoints(ds.Topology, ds.MME.Records, seed))
	fmt.Fprintf(out, "reference: cells.nearest_mismatch %d of %d sampled points\n", bad, checked)
	return bad == 0
}

// discardSink counts what a source emits and keeps nothing.
type discardSink struct{ records, users int64 }

func (d *discardSink) Proxy(proxylog.Record) error { d.records++; return nil }
func (d *discardSink) MME(mme.Record) error        { d.records++; return nil }
func (d *discardSink) UDR(udr.Record) error        { d.records++; return nil }
func (d *discardSink) UserDone(subs.IMSI) error    { d.users++; return nil }

// probeFlows is how many flows the replay probe drives: enough for a p99
// with 30 flows beyond it.
const probeFlows = 3000

// probes measures every layer once on the seed's dataset, each call
// inside a span with op id opProbe, and adds the per-layer metrics to m.
// It reports whether its own cross-checks passed.
func probes(out io.Writer, tr *tracer, seed uint64, m map[string]float64) (bool, error) {
	ok := true
	root := tr.begin("probe", noSpan, opProbe)
	defer tr.end(root)
	span := func(name string, f func() error) (time.Duration, error) {
		s := tr.begin(name, root, opProbe)
		t0 := tr.now()
		err := f()
		tr.end(s)
		return tr.now() - t0, err
	}

	// gen: substrate, per-user generation into a discarding sink, and the
	// whole generator at one worker and at nproc.
	cfg1 := wearwild.SmallConfig(seed)
	cfg1.Workers = 1
	var src *sim.StreamSource
	substrate, err := span("sim.NewStreamSource", func() (err error) {
		src, err = sim.NewStreamSource(cfg1)
		return err
	})
	if err != nil {
		return false, err
	}
	discard := &discardSink{}
	user, err := span("sim.StreamSource.Stream", func() error { return src.Stream(discard) })
	if err != nil {
		return false, err
	}
	src = nil
	runtime.GC()
	meter := startMeter()
	gen1, err := span("sim.Generate.workers1", func() error {
		_, err := sim.Generate(cfg1)
		return err
	})
	if err != nil {
		return false, err
	}
	m["gen.alloc_mb"] = mib(meter.stop().alloc)
	runtime.GC()
	var ds *wearwild.Dataset
	genN, err := span("sim.Generate.workersN", func() (err error) {
		ds, err = sim.Generate(wearwild.SmallConfig(seed))
		return err
	})
	if err != nil {
		return false, err
	}
	m["gen.substrate_ms"] = millis(substrate)
	m["gen.user_ms"] = millis(user)
	m["gen.generate_ms"] = millis(gen1)
	m["gen.merge_sort_ms"] = millis(gen1 - substrate - user)
	m["gen.records"] = float64(discard.records)
	m["gen.users"] = float64(discard.users)
	m["gen.ns_per_record"] = ratio(float64(gen1), float64(discard.records))
	m["gen.parallel_speedup"] = ratio(float64(gen1), float64(genN))

	// cells: every seeded point through the index, a sample cross-checked.
	pts := nearestPoints(ds.Topology, ds.MME.Records, seed)
	nearest, _ := span("cells.Topology.Nearest", func() error {
		for _, p := range pts {
			ds.Topology.Nearest(p)
		}
		return nil
	})
	bad, checked := nearestMismatches(ds.Topology, pts)
	m["cells.nearest_ns"] = ratio(float64(nearest), float64(len(pts)))
	m["cells.nearest_mismatch"] = float64(bad)
	if bad != 0 {
		fmt.Fprintf(out, "probe: cells.nearest_mismatch %d of %d\n", bad, checked)
		ok = false
	}

	// codecs: the WriteFile calls Save makes, then the ReadFile calls Load
	// makes.
	if err := probeCodecs(ds, span, m); err != nil {
		return false, err
	}

	// core: one pass at one worker, where routing and eviction run inside
	// the sink callbacks, and one at nproc, where the callbacks are the
	// handoff to the shard workers.
	runtime.GC()
	s1 := tr.begin("core.workers1", root, opProbe)
	res1, one, err := tracedStudy(tr, s1, opProbe, ds, 1)
	tr.end(s1)
	if err != nil {
		return false, err
	}
	runtime.GC()
	meter = startMeter()
	sN := tr.begin("core.workersN", root, opProbe)
	resN, many, err := tracedStudy(tr, sN, opProbe, ds, 0)
	tr.end(sN)
	if err != nil {
		return false, err
	}
	m["core.alloc_mb"] = mib(meter.stop().alloc)
	fp1, err := fingerprint(res1)
	if err != nil {
		return false, err
	}
	if fpN, err := fingerprint(resN); err != nil || fpN != fp1 {
		fmt.Fprintf(out, "probe: core results differ between 1 and %d workers\n", resolveWorkers(0))
		ok = false
	}

	var evaluate, render time.Duration
	evaluate, _ = span("experiments.Evaluate", func() error { wearwild.Evaluate(resN); return nil })
	render, _ = span("report.Render", func() error { wearwild.Render(io.Discard, resN, renderRows); return nil })
	good, _ := inBand(resN)
	m["experiments.evaluate_ms"] = millis(evaluate)
	m["experiments.in_band"] = float64(good)
	m["report.render_ms"] = millis(render)

	spans := tr.snapshot()
	self := selfTimes(spans)
	probeOnly := selfByName(spans, func(op int) bool { return op == opProbe })
	m["stream.logs_ms"] = millis(self[one.stream])
	m["core.route_ms"] = millis(probeOnly[spanRoute])
	m["core.evict_ms"] = millis(probeOnly[spanEvict])
	m["core.finalize_ms"] = millis(spans[one.finalize].dur())
	m["core.records_routed"] = float64(one.records)
	m["core.users_evicted"] = float64(one.users)
	m["core.evict_us_per_user"] = ratio(float64(probeOnly[spanEvict])/float64(time.Microsecond), float64(one.users))
	m["core.handoff_wait_ms"] = millis(probeOnly[spanHandoff])
	m["core.parallel_speedup"] = ratio(float64(spans[one.study].dur()), float64(spans[many.study].dur()))

	recs := wearableFlows(ds.Devices, ds.Proxy.Records)
	ds = nil
	replayOK, err := probeReplay(out, tr, root, recs, m)
	return ok && replayOK, err
}

// probeCodecs writes the three logs with each package's WriteFile and
// reads them back with its ReadFile, in a scratch directory of the run.
func probeCodecs(ds *wearwild.Dataset, span func(string, func() error) (time.Duration, error), m map[string]float64) error {
	dir, err := os.MkdirTemp(outDir, "codec-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mmePath := filepath.Join(dir, "mme.csv.gz")
	proxyPath := filepath.Join(dir, "proxy.bin.gz")
	udrPath := filepath.Join(dir, "udr.csv.gz")

	steps := []struct {
		metric string
		f      func() error
	}{
		{"mme.encode_ms", func() error { return mme.WriteFile(mmePath, ds.MME.Records) }},
		{"proxylog.encode_ms", func() error { return proxylog.WriteFile(proxyPath, ds.Proxy.Records) }},
		{"udr.encode_ms", func() error { return udr.WriteFile(udrPath, ds.UDR.Records) }},
		{"mme.decode_ms", func() error { return wantLen(mme.ReadFile(mmePath))(len(ds.MME.Records)) }},
		{"proxylog.decode_ms", func() error { return wantLen(proxylog.ReadFile(proxyPath))(len(ds.Proxy.Records)) }},
		{"udr.decode_ms", func() error { return wantLen(udr.ReadFile(udrPath))(len(ds.UDR.Records)) }},
	}
	for _, st := range steps {
		runtime.GC()
		d, err := span(st.metric, st.f)
		if err != nil {
			return fmt.Errorf("%s: %w", st.metric, err)
		}
		m[st.metric] = millis(d)
	}
	var size int64
	for _, p := range []string{mmePath, proxyPath, udrPath} {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	m["codec.file_mb"] = mib(uint64(size))
	return nil
}

// wantLen checks a decoded log's length against the encoded one's.
func wantLen[T any](recs []T, err error) func(int) error {
	return func(n int) error {
		if err != nil {
			return err
		}
		if len(recs) != n {
			return fmt.Errorf("decoded %d records, encoded %d", len(recs), n)
		}
		return nil
	}
}

// probeReplay drives probeFlows wearable flows through a fresh harness
// with nproc closed-loop clients and reads the proxy's side from its log.
func probeReplay(out io.Writer, tr *tracer, root spanID, recs []proxylog.Record, m map[string]float64) (bool, error) {
	if len(recs) == 0 {
		return false, fmt.Errorf("no wearable proxy records to replay")
	}
	h, err := replay.NewHarness()
	if err != nil {
		return false, err
	}
	defer h.Close()
	s := tr.begin("replay.probe", root, opProbe)
	run := replayLoop(h, recs, runtime.NumCPU(), 0, probeFlows, nil, opProbe)
	captured, lag := drain(h, 0, len(run.flows), run.lastReturn)
	tr.end(s)

	var all, tls, plain, proxied []float64
	for _, fl := range run.flows {
		if fl.err != nil {
			continue
		}
		d := millis(fl.dur)
		all = append(all, d)
		if fl.rec.Scheme == proxylog.HTTPS {
			tls = append(tls, d)
		} else {
			plain = append(plain, d)
		}
	}
	drops := make([]int, proxylog.NumDropReasons)
	var relayed int64
	for _, c := range captured {
		proxied = append(proxied, millis(c.Duration))
		drops[c.Drop]++
		relayed += c.BytesUp + c.BytesDown
	}
	f := classifyFlows(run.flows, captured)

	p99, okP99 := percentile(all, 99, 100)
	flowP99, okFlowP99 := percentile(proxied, 99, 100)
	if !okP99 || !okFlowP99 {
		return false, fmt.Errorf("replay probe: %d client and %d proxy samples are too few for a p99", len(all), len(proxied))
	}
	m["replay.flows"] = float64(len(run.flows))
	m["replay.op_p99_ms"] = p99
	m["replay.tls_op_p50_ms"] = median(tls)
	m["replay.http_op_p50_ms"] = median(plain)
	m["netproxy.flow_p50_ms"] = median(proxied)
	m["netproxy.flow_p99_ms"] = flowP99
	for d := proxylog.DropReason(1); d < proxylog.NumDropReasons; d++ {
		m["netproxy.drop."+d.String()] = float64(drops[d])
	}
	m["replay.uncaptured"] = float64(f.uncaptured)
	m["replay.log_lag_ms"] = millis(lag)
	m["replay.host_match_ratio"] = f.hostMatch
	m["netproxy.relayed_mb"] = mib(uint64(relayed))
	fmt.Fprintf(out, "probe: replay %d flows (%d TLS, %d HTTP) over loopback only, errors %d, uncaptured %d, truncated %d, mismatched %d\n",
		len(run.flows), len(tls), len(plain), f.errors, f.uncaptured, f.truncated, f.mismatched)
	return f.mismatched == 0, nil
}
