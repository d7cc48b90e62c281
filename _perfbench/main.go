// Command perfbench is wearwild's benchmark. It runs one workload on a
// seed, checks every op's output, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a traced run) as the last line
// of standard output. README.md describes the workloads and metrics.
//
// Usage, from the root of a checkout:
//
//	bash _perfbench/run.sh --workload reproduce --seed 1234 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// outDir holds what a run writes: saved datasets, codec scratch files
	// and trace files. It is relative to the working directory.
	outDir = ".bench_out"
	// An untraced run times its ops in slices, each at least one op long,
	// with a repeated setup between slices. The host's speed drifts over
	// tens of seconds, and spreading the ops over the run's whole length
	// keeps one slow spell from setting the median.
	timedSlices = 3
	// An untraced run sets up at least setupReps times and until the setups
	// have taken minSetupTime, and reports the median: a setup of a few
	// milliseconds is repeated often enough to steady its median.
	setupReps    = 3
	minSetupTime = time.Second
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "reproduce", "workload: reproduce, study-saved or proxy-replay")
	seed := fs.Uint64("seed", 1234, "workload seed; the program receives only the inputs generated from it")
	seconds := fs.Int("seconds", 15, "how long to time ops, in seconds")
	trace := fs.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload reproduce|study-saved|proxy-replay, --seconds >= 1, --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d s, trace %d\n", wl.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(stdout, *wl, *seed, budget)
	} else {
		res, err = untracedRun(stdout, *wl, *seed, budget)
	}
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Fprintln(stdout, string(line))
			return 0
		}
	}
	fmt.Fprintf(stderr, "perfbench: %v\n", err)
	return 1
}

// setUp runs the workload's setup once and returns the instance and how
// long the setup took.
func setUp(wl workload, seed uint64, tr *tracer) (instance, time.Duration, error) {
	runtime.GC()
	s := tr.begin("setup", noSpan, opSetup)
	t0 := time.Now()
	inst, err := wl.setup(seed)
	d := time.Since(t0)
	tr.end(s)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	return inst, d, nil
}

// timeSetup repeats the setup for its timing alone and releases what it
// built.
func timeSetup(wl workload, seed uint64) (time.Duration, error) {
	inst, d, err := setUp(wl, seed, nil)
	if err == nil {
		inst.close()
	}
	return d, err
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// untracedRun measures the end-to-end metrics.
func untracedRun(out io.Writer, wl workload, seed uint64, budget time.Duration) (*result, error) {
	inst, first, err := setUp(wl, seed, nil)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ok, err := inst.reference(out)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	setups := []time.Duration{first}
	total := first
	w := &window{correct: true}
	for i := 0; i < timedSlices || len(setups) < setupReps || total < minSetupTime; i++ {
		if i > 0 {
			d, err := timeSetup(wl, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
			total += d
		}
		if i < timedSlices {
			w.merge(inst.measure(out, budget/timedSlices, 1, nil, 1+w.attempted))
		}
	}

	n := float64(len(w.ops))
	busy := w.busy.Seconds()
	values := map[string]float64{
		"setup_s":         median(seconds(setups)),
		"op_p50_ms":       median(ms(w.ops)),
		"records_per_s":   ratio(float64(w.records), busy),
		"ops_per_s":       ratio(n, busy),
		"cpu_ms_per_op":   ratio(millis(w.use.cpu), n),
		"alloc_mb_per_op": ratio(mib(w.use.alloc), n),
		"peak_heap_mb":    mib(w.peakHeap),
	}
	p99 := "not reported (fewer than 10 ops beyond it)"
	if v, ok := percentile(ms(w.ops), 99, 100); ok {
		p99 = fmt.Sprintf("%.3f", v)
	}
	fmt.Fprintf(out, "setup: median of %d setups\n", len(setups))
	fmt.Fprintf(out, "ops: %d completed of %d attempted, error_rate %g, %.0f records per op\n",
		len(w.ops), w.attempted, ratio(float64(w.failed), float64(w.attempted)), ratio(float64(w.records), n))
	fmt.Fprintf(out, "ops: op_p50_ms %.3f, op_p99_ms %s, over %d ops\n", values["op_p50_ms"], p99, len(w.ops))
	metrics, err := collect(endToEnd, values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: ok && w.correct, Attempted: w.attempted, Failed: w.failed, Metrics: metrics}, nil
}

// tracedRun measures the per-layer metrics: the workload's ops untraced
// and then traced, for the tracing overhead and the layer coverage of the
// op, followed by the layer probes.
func tracedRun(out io.Writer, wl workload, seed uint64, budget time.Duration) (*result, error) {
	tr := newTracer()
	inst, _, err := setUp(wl, seed, tr)
	if err != nil {
		return nil, err
	}
	ok, err := inst.reference(out)
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("reference: %w", err)
	}
	plain := inst.measure(out, budget/2, 1, nil, 1)
	traced := inst.measure(out, budget/2, 1, tr, 1)
	inst.close()

	values := make(map[string]float64)
	probesOK, err := probes(out, tr, seed, values)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	// Layer coverage: the share of traced op time that the op's layer spans
	// account for, i.e. one minus the ops' own self time.
	spans := tr.snapshot()
	self := selfTimes(spans)
	var opSelf, opDur time.Duration
	for i, s := range spans {
		if s.Op >= 1 && s.Parent == noSpan {
			opSelf += self[i]
			opDur += s.dur()
		}
	}
	tracedP50, plainP50 := median(ms(traced.ops)), median(ms(plain.ops))
	values["trace.op_p50_ms"] = tracedP50
	values["trace.untraced_op_p50_ms"] = plainP50
	values["trace.overhead"] = ratio(tracedP50, plainP50) - 1
	values["trace.layer_coverage"] = 1 - ratio(float64(opSelf), float64(opDur))
	values["runtime.gc_cycles_per_op"] = ratio(float64(plain.use.cycles), float64(len(plain.ops)))

	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", wl.name, seed))
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "trace: %d spans written to %s\n", len(spans), path)
	fmt.Fprintf(out, "trace: op_p50_ms %.3f traced (%d ops) vs %.3f untraced (%d ops), overhead %+.1f%%; layer spans cover %.1f%% of traced op time\n",
		tracedP50, len(traced.ops), plainP50, len(plain.ops), 100*values["trace.overhead"], 100*values["trace.layer_coverage"])
	metrics, err := collect(perLayer, values)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   ok && plain.correct && traced.correct && probesOK,
		Attempted: plain.attempted + traced.attempted,
		Failed:    plain.failed + traced.failed,
		Metrics:   metrics,
	}, nil
}
