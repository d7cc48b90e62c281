package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"wearwild"
	"wearwild/internal/gen/sim"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/replay"
)

// renderRows is wearstudy's default table length.
const renderRows = 25

// workload is one named input set and the op the benchmark times on it.
type workload struct {
	name  string
	setup func(seed uint64) (instance, error)
}

var workloads = []workload{
	{"reproduce", setupReproduce},
	{"study-saved", setupStudySaved},
	{"proxy-replay", setupProxyReplay},
}

// instance is a workload after its setup.
type instance interface {
	// reference computes what every op is checked against and runs the
	// run's other correctness checks. It is not part of setup_s. It prints
	// what it found and reports whether the checks passed.
	reference(out io.Writer) (bool, error)
	// measure runs timed ops for budget, and at least minOps of them
	// where ops run one at a time. With a tracer, op ids start at firstOp.
	measure(out io.Writer, budget time.Duration, minOps int, tr *tracer, firstOp int) *window
	close()
}

// window is what one stretch of timed ops did and cost.
type window struct {
	ops       []time.Duration // completed ops
	busy      time.Duration   // wall time during which ops ran
	records   int64           // records the completed ops processed
	attempted int
	failed    int
	correct   bool
	use       usage
	peakHeap  uint64
}

// merge adds another window of the same run.
func (w *window) merge(o *window) {
	w.ops = append(w.ops, o.ops...)
	w.busy += o.busy
	w.records += o.records
	w.attempted += o.attempted
	w.failed += o.failed
	w.correct = w.correct && o.correct
	w.use.add(o.use)
	w.peakHeap = max(w.peakHeap, o.peakHeap)
}

// fingerprint is the sha256 of a Results tree's JSON encoding.
func fingerprint(res *wearwild.Results) (string, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// inBand counts the paper metrics a run reproduces within their bands.
func inBand(res *wearwild.Results) (ok, total int) {
	for _, e := range wearwild.Evaluate(res) {
		for _, m := range e.Metrics {
			total++
			if m.OK() {
				ok++
			}
		}
	}
	return ok, total
}

func datasetRecords(ds *wearwild.Dataset) int64 {
	return int64(len(ds.MME.Records) + len(ds.Proxy.Records) + len(ds.UDR.Records))
}

// studyReference computes the Workers=1 study of ds that every op must
// reproduce byte for byte, prints it with the paper metrics in band, and
// runs the nearest-sector check on the dataset.
func studyReference(out io.Writer, ds *wearwild.Dataset, seed uint64) (string, bool, error) {
	cfg := wearwild.DefaultStudyConfig()
	cfg.Workers = 1
	res, err := wearwild.RunStudyWith(ds, cfg)
	if err != nil {
		return "", false, err
	}
	fp, err := fingerprint(res)
	if err != nil {
		return "", false, err
	}
	ok, total := inBand(res)
	fmt.Fprintf(out, "reference: results sha256 %s (Workers=1)\n", fp)
	fmt.Fprintf(out, "reference: paper metrics in band %d/%d\n", ok, total)
	fmt.Fprintf(out, "reference: %d records (MME %d, proxy %d, UDR %d) per op\n",
		datasetRecords(ds), len(ds.MME.Records), len(ds.Proxy.Records), len(ds.UDR.Records))
	return fp, checkNearest(out, ds, seed), nil
}

// studyOp is one sequential op: it returns the op's Results and the
// number of records it processed.
type studyOp func(tr *tracer, op int) (*wearwild.Results, int64, error)

// runSequential times ops one after another. Each op's resource use is
// metered around the op alone; its Results are fingerprinted afterwards,
// outside the timing, and must equal want.
func runSequential(out io.Writer, op studyOp, want string, budget time.Duration, minOps int, tr *tracer, firstOp int) *window {
	w := &window{correct: true}
	runtime.GC()
	heap := watchHeap()
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		m := startMeter()
		t0 := time.Now()
		res, records, err := op(tr, firstOp+i)
		d := time.Since(t0)
		w.use.add(m.stop())
		w.attempted++
		if err == nil {
			var fp string
			if fp, err = fingerprint(res); err == nil && fp != want {
				err = fmt.Errorf("results sha256 %s differs from the reference", fp)
			}
		}
		if err != nil {
			fmt.Fprintf(out, "op %d failed: %v\n", firstOp+i, err)
			w.failed++
			w.correct = false
			continue
		}
		w.ops = append(w.ops, d)
		w.busy += d
		w.records += records
	}
	w.peakHeap = heap.stop()
	return w
}

// studyTail is the part of an op after the dataset exists: the study,
// the paper comparison and, if render, the report.
func studyTail(tr *tracer, root spanID, op int, ds *wearwild.Dataset, render bool) (*wearwild.Results, error) {
	var res *wearwild.Results
	var err error
	if tr == nil {
		res, err = wearwild.RunStudy(ds)
	} else {
		res, _, err = tracedStudy(tr, root, op, ds, 0)
	}
	if err != nil {
		return nil, err
	}
	s := tr.begin("experiments.Evaluate", root, op)
	wearwild.Evaluate(res)
	tr.end(s)
	if render {
		s = tr.begin("report.Render", root, op)
		wearwild.Render(io.Discard, res, renderRows)
		tr.end(s)
	}
	return res, nil
}

// reproduce: generate, study, evaluate and render, as wearstudy and
// wearbench do without -data.
type reproduce struct {
	seed uint64
	cfg  wearwild.Config
	want string
}

// setupReproduce validates the configuration by building its
// deterministic substrate once (topology, device DB, catalogue,
// population). The op rebuilds everything itself.
func setupReproduce(seed uint64) (instance, error) {
	cfg := wearwild.SmallConfig(seed)
	if _, err := sim.NewStreamSource(cfg); err != nil {
		return nil, err
	}
	return &reproduce{seed: seed, cfg: cfg}, nil
}

func (r *reproduce) reference(out io.Writer) (bool, error) {
	cfg := r.cfg
	cfg.Workers = 1
	ds, err := wearwild.Generate(cfg)
	if err != nil {
		return false, err
	}
	fp, ok, err := studyReference(out, ds, r.seed)
	r.want = fp
	return ok, err
}

func (r *reproduce) op(tr *tracer, op int) (*wearwild.Results, int64, error) {
	root := tr.begin("op", noSpan, op)
	defer tr.end(root)
	s := tr.begin("wearwild.Generate", root, op)
	ds, err := wearwild.Generate(r.cfg)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	res, err := studyTail(tr, root, op, ds, true)
	return res, datasetRecords(ds), err
}

func (r *reproduce) measure(out io.Writer, budget time.Duration, minOps int, tr *tracer, firstOp int) *window {
	return runSequential(out, r.op, r.want, budget, minOps, tr, firstOp)
}

func (r *reproduce) close() {}

// studySaved: load a saved dataset, study and evaluate it, as
// wearstudy -data does.
type studySaved struct {
	seed uint64
	dir  string
	want string
}

// setupStudySaved generates the dataset and saves it once.
func setupStudySaved(seed uint64) (instance, error) {
	dir, err := os.MkdirTemp(outDir, "study-saved-")
	if err != nil {
		return nil, err
	}
	ds, err := wearwild.Generate(wearwild.SmallConfig(seed))
	if err == nil {
		err = ds.Save(dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &studySaved{seed: seed, dir: dir}, nil
}

func (s *studySaved) reference(out io.Writer) (bool, error) {
	ds, err := wearwild.Load(s.dir)
	if err != nil {
		return false, err
	}
	fp, ok, err := studyReference(out, ds, s.seed)
	s.want = fp
	return ok, err
}

func (s *studySaved) op(tr *tracer, op int) (*wearwild.Results, int64, error) {
	root := tr.begin("op", noSpan, op)
	defer tr.end(root)
	sp := tr.begin("wearwild.Load", root, op)
	ds, err := wearwild.Load(s.dir)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	res, err := studyTail(tr, root, op, ds, false)
	return res, datasetRecords(ds), err
}

func (s *studySaved) measure(out io.Writer, budget time.Duration, minOps int, tr *tracer, firstOp int) *window {
	return runSequential(out, s.op, s.want, budget, minOps, tr, firstOp)
}

func (s *studySaved) close() { os.RemoveAll(s.dir) }

// proxyReplay: the generated wearable flows replayed through the real
// proxy on loopback, as wearreplay does.
type proxyReplay struct {
	seed    uint64
	ds      *wearwild.Dataset // held until reference has used it
	recs    []proxylog.Record
	h       *replay.Harness
	clients int
}

// setupProxyReplay generates the dataset, keeps its wearable proxy
// records and starts the harness: local origins and the proxy, all on
// 127.0.0.1.
func setupProxyReplay(seed uint64) (instance, error) {
	ds, err := wearwild.Generate(wearwild.SmallConfig(seed))
	if err != nil {
		return nil, err
	}
	recs := wearableFlows(ds.Devices, ds.Proxy.Records)
	if len(recs) == 0 {
		return nil, fmt.Errorf("seed %d generated no wearable proxy records", seed)
	}
	h, err := replay.NewHarness()
	if err != nil {
		return nil, err
	}
	return &proxyReplay{seed: seed, ds: ds, recs: recs, h: h, clients: runtime.NumCPU()}, nil
}

func (p *proxyReplay) reference(out io.Writer) (bool, error) {
	sum := sha256.New()
	https := 0
	for _, r := range p.recs {
		fmt.Fprintf(sum, "%s|%s|%s|%d|%d\n", r.Scheme, r.Host, r.Path, r.BytesUp, r.BytesDown)
		if r.Scheme == proxylog.HTTPS {
			https++
		}
	}
	fmt.Fprintf(out, "reference: %d wearable proxy records, %.1f%% HTTPS, inputs sha256 %s\n",
		len(p.recs), 100*ratio(float64(https), float64(len(p.recs))), hex.EncodeToString(sum.Sum(nil)))
	fmt.Fprintf(out, "reference: closed loop, %d clients; all traffic crosses loopback (127.0.0.1) only\n", p.clients)
	ok := checkNearest(out, p.ds, p.seed)
	p.ds = nil
	return ok, nil
}

func (p *proxyReplay) measure(out io.Writer, budget time.Duration, _ int, tr *tracer, firstOp int) *window {
	base := len(p.h.Captured())
	runtime.GC()
	heap := watchHeap()
	m := startMeter()
	run := replayLoop(p.h, p.recs, p.clients, budget, 0, tr, firstOp)
	captured, lag := drain(p.h, base, len(run.flows), run.lastReturn)
	w := &window{use: m.stop(), peakHeap: heap.stop(), busy: run.wall, attempted: len(run.flows)}

	f := classifyFlows(run.flows, captured)
	w.failed = f.failed(w.attempted)
	w.correct = f.mismatched == 0
	for _, fl := range run.flows {
		if fl.err == nil {
			w.ops = append(w.ops, fl.dur)
		}
	}
	w.records = int64(len(w.ops))

	fmt.Fprintf(out, "flows: %d attempted; errors %d, uncaptured %d, truncated %d, mismatched %d; log lag %.3f ms\n",
		w.attempted, f.errors, f.uncaptured, f.truncated, f.mismatched, millis(lag))
	return w
}

func (p *proxyReplay) close() { p.h.Close() }
