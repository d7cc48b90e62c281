package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"wearwild"
	"wearwild/internal/core"
)

// BenchReport is the machine-readable output of -bench-json: wall-clock
// and allocation figures for the generate and study phases, and the
// determinism cross-check between the sequential (Workers=1) and parallel
// pipelines. CI commits one of these as the tracked baseline and fails
// the bench-smoke job on regression.
type BenchReport struct {
	Schema     int    `json:"schema"`
	Seed       uint64 `json:"seed"`
	Small      bool   `json:"small"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`

	// Timings in milliseconds, allocations in bytes (TotalAlloc deltas).
	// GenerateMs/GenerateAllocBytes are the sequential (Workers=1)
	// generator run, comparable across baselines regardless of host
	// shape; GenerateParallelMs is the run at the -workers setting and
	// SpeedupGenerate the sequential/parallel ratio. GenerateSweep
	// records every worker count measured.
	GenerateMs         float64              `json:"generate_ms"`
	GenerateAllocBytes uint64               `json:"generate_alloc_bytes"`
	GenerateParallelMs float64              `json:"generate_parallel_ms"`
	SpeedupGenerate    float64              `json:"speedup_generate"`
	GenerateSweep      []GenerateSweepEntry `json:"generate_sweep"`
	StudySeqMs         float64              `json:"study_sequential_ms"`
	StudySeqAllocBytes uint64               `json:"study_sequential_alloc_bytes"`
	StudyParMs         float64              `json:"study_parallel_ms"`
	StudyParAllocBytes uint64               `json:"study_parallel_alloc_bytes"`
	// StudyPeakHeapBytes is the highest heap occupancy (HeapAlloc) sampled
	// while the parallel study ran: the figure the bounded-memory contract
	// gates on, as opposed to the cumulative TotalAlloc deltas above.
	StudyPeakHeapBytes uint64 `json:"study_peak_heap_bytes"`
	// SpeedupStudy is sequential/parallel wall-clock (>1 means faster).
	SpeedupStudy float64 `json:"speedup_study"`
	// SpeedupGateSkipped records that the parallel-speedup assertion did
	// not run (single-CPU host, where worker overhead legitimately makes
	// the parallel pipeline slower); Reason says why, for the artifact.
	SpeedupGateSkipped bool   `json:"speedup_gate_skipped"`
	SpeedupGateReason  string `json:"speedup_gate_reason,omitempty"`
	// Deterministic records whether the sequential and parallel Results
	// serialised to identical JSON.
	Deterministic bool `json:"deterministic"`

	MetricsPass  int `json:"metrics_pass"`
	MetricsTotal int `json:"metrics_total"`
}

// GenerateSweepEntry is one generator run of the per-worker sweep.
type GenerateSweepEntry struct {
	Workers    int     `json:"workers"`
	Ms         float64 `json:"ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
}

// allocSnapshot returns cumulative heap bytes allocated so far.
func allocSnapshot() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timed runs fn and returns its wall-clock milliseconds and allocation
// delta.
func timed(fn func() error) (ms float64, allocBytes uint64, err error) {
	a0 := allocSnapshot()
	t0 := time.Now()
	err = fn()
	ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	allocBytes = allocSnapshot() - a0
	return ms, allocBytes, err
}

// peakHeapDuring runs fn while a sampler goroutine records the highest
// heap occupancy (HeapAlloc) observed. It settles the heap with a GC
// first so the figure measures fn, not leftovers from earlier phases,
// and folds in one final post-run reading so short bursts between the
// last tick and return still count.
func peakHeapDuring(fn func() error) (peak uint64, err error) {
	runtime.GC()
	read := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	peak = read()
	done := make(chan struct{})
	sampled := make(chan uint64, 1)
	go func() {
		defer close(sampled)
		max := uint64(0)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				sampled <- max
				return
			case <-tick.C:
				if h := read(); h > max {
					max = h
				}
			}
		}
	}()
	err = fn()
	close(done)
	if max := <-sampled; max > peak {
		peak = max
	}
	if h := read(); h > peak {
		peak = h
	}
	return peak, err
}

// runBenchJSON executes the benchmark protocol and writes the report.
func runBenchJSON(out io.Writer, cfg wearwild.Config, seed uint64, small bool, workers int, baselinePath string) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &BenchReport{
		Schema:     1,
		Seed:       seed,
		Small:      small,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}

	// Generator sweep: the shard-and-merge generator is byte-identical
	// at any worker count, so every run below produces the same dataset
	// and only the timings differ. The -workers run's dataset feeds the
	// study phases.
	sweep := []int{1, 2, 4, 8}
	if !slices.Contains(sweep, workers) {
		sweep = append(sweep, workers)
	}
	var ds *wearwild.Dataset
	var err error
	for _, w := range sweep {
		gcfg := cfg
		gcfg.Workers = w
		var cur *wearwild.Dataset
		ms, alloc, terr := timed(func() error {
			var err error
			cur, err = wearwild.Generate(gcfg)
			return err
		})
		if terr != nil {
			return terr
		}
		rep.GenerateSweep = append(rep.GenerateSweep, GenerateSweepEntry{Workers: w, Ms: ms, AllocBytes: alloc})
		if w == 1 {
			rep.GenerateMs, rep.GenerateAllocBytes = ms, alloc
		}
		if w == workers {
			rep.GenerateParallelMs = ms
			ds = cur
		}
	}
	if rep.GenerateParallelMs > 0 {
		rep.SpeedupGenerate = rep.GenerateMs / rep.GenerateParallelMs
	}

	seqCfg := core.DefaultConfig()
	seqCfg.Workers = 1
	parCfg := core.DefaultConfig()
	parCfg.Workers = workers

	var seqRes, parRes *wearwild.Results
	rep.StudySeqMs, rep.StudySeqAllocBytes, err = timed(func() error {
		seqRes, err = wearwild.RunStudyWith(ds, seqCfg)
		return err
	})
	if err != nil {
		return err
	}
	rep.StudyPeakHeapBytes, err = peakHeapDuring(func() error {
		rep.StudyParMs, rep.StudyParAllocBytes, err = timed(func() error {
			parRes, err = wearwild.RunStudyWith(ds, parCfg)
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	if rep.StudyParMs > 0 {
		rep.SpeedupStudy = rep.StudySeqMs / rep.StudyParMs
	}
	if runtime.NumCPU() == 1 {
		rep.SpeedupGateSkipped = true
		rep.SpeedupGateReason = "single CPU: parallel worker overhead legitimately exceeds the gain"
	}

	seqJSON, err := json.Marshal(seqRes)
	if err != nil {
		return err
	}
	parJSON, err := json.Marshal(parRes)
	if err != nil {
		return err
	}
	rep.Deterministic = string(seqJSON) == string(parJSON)

	for _, e := range wearwild.Evaluate(parRes) {
		for _, m := range e.Metrics {
			rep.MetricsTotal++
			if m.OK() {
				rep.MetricsPass++
			}
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	if !rep.Deterministic {
		return fmt.Errorf("sequential and parallel Results differ — determinism contract broken")
	}
	// Parallel-speedup assertion: the sharded pipeline must not be
	// dramatically slower than the sequential one. The bar is deliberately
	// low (0.8x) — -small scale on shared CI is noisy — and the gate is
	// skipped entirely on single-CPU hosts, where a speedup below 1 is
	// the expected cost of worker bookkeeping, not a regression.
	const minSpeedup = 0.8
	if !rep.SpeedupGateSkipped && rep.SpeedupStudy > 0 && rep.SpeedupStudy < minSpeedup {
		return fmt.Errorf("parallel study speedup %.2fx below the %.2fx floor on a %d-CPU host",
			rep.SpeedupStudy, minSpeedup, rep.NumCPU)
	}
	// The sharded generator shares the floor and the single-CPU skip.
	if !rep.SpeedupGateSkipped && rep.SpeedupGenerate > 0 && rep.SpeedupGenerate < minSpeedup {
		return fmt.Errorf("parallel generate speedup %.2fx below the %.2fx floor on a %d-CPU host",
			rep.SpeedupGenerate, minSpeedup, rep.NumCPU)
	}
	if baselinePath != "" {
		resolved, err := resolveBaseline(baselinePath, rep)
		if err != nil {
			return err
		}
		if resolved == "" {
			log.Printf("no baseline matches %s; skipping the regression gate", baselinePath)
			return nil
		}
		if resolved != baselinePath {
			log.Printf("baseline %s selected from %s", resolved, baselinePath)
		}
		return checkBaseline(rep, resolved)
	}
	return nil
}

// resolveBaseline picks the baseline file for path, which may be a glob
// (BENCH_*.json, letting the repo accrete one committed report per PR).
// Among the matching reports the best match is the one recorded under
// the most comparable conditions: same -small flag first, then closest
// NumCPU, then closest GOMAXPROCS, ties broken by lexicographically
// smallest path so the pick is deterministic. Unreadable or unparsable
// candidates are skipped with a note. Returns "" when nothing matches.
func resolveBaseline(path string, rep *BenchReport) (string, error) {
	if !strings.ContainsAny(path, "*?[") {
		return path, nil
	}
	matches, err := filepath.Glob(path)
	if err != nil {
		return "", fmt.Errorf("baseline glob %q: %w", path, err)
	}
	sort.Strings(matches)
	boolMismatch := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	best := ""
	var bestScore [3]int
	for _, m := range matches {
		raw, err := os.ReadFile(m)
		if err != nil {
			log.Printf("baseline %s: unreadable, skipped (%v)", m, err)
			continue
		}
		var cand BenchReport
		if err := json.Unmarshal(raw, &cand); err != nil {
			log.Printf("baseline %s: unparsable, skipped (%v)", m, err)
			continue
		}
		score := [3]int{
			boolMismatch(cand.Small != rep.Small),
			abs(cand.NumCPU - rep.NumCPU),
			abs(cand.GOMAXPROCS - rep.GOMAXPROCS),
		}
		if best == "" || score[0] < bestScore[0] ||
			(score[0] == bestScore[0] && score[1] < bestScore[1]) ||
			(score[0] == bestScore[0] && score[1] == bestScore[1] && score[2] < bestScore[2]) {
			best, bestScore = m, score
		}
	}
	return best, nil
}

// checkBaseline fails when a timing regressed more than 2x against the
// committed baseline, or when study peak heap or generator allocations
// grew past the same 2x bar (the bounded-memory and slab-discipline
// contracts). Baselines predating a gated field record zero and skip
// that gate.
func checkBaseline(rep *BenchReport, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	const maxRegression = 2.0
	check := func(what string, now, then float64) error {
		if then > 0 && now > then*maxRegression {
			return fmt.Errorf("%s regressed %.1fx (%.0fms vs baseline %.0fms, limit %.1fx)",
				what, now/then, now, then, maxRegression)
		}
		return nil
	}
	if err := check("generate", rep.GenerateMs, base.GenerateMs); err != nil {
		return err
	}
	if err := check("study", rep.StudyParMs, base.StudyParMs); err != nil {
		return err
	}
	// Generator allocations gate at the same 2x bar as peak heap: the §9
	// slab discipline is a measured contract, not a one-off win.
	if base.GenerateAllocBytes > 0 &&
		float64(rep.GenerateAllocBytes) > float64(base.GenerateAllocBytes)*maxRegression {
		return fmt.Errorf("generate allocations regressed %.1fx (%d bytes vs baseline %d, limit %.1fx)",
			float64(rep.GenerateAllocBytes)/float64(base.GenerateAllocBytes),
			rep.GenerateAllocBytes, base.GenerateAllocBytes, maxRegression)
	}
	if base.StudyPeakHeapBytes > 0 &&
		float64(rep.StudyPeakHeapBytes) > float64(base.StudyPeakHeapBytes)*maxRegression {
		return fmt.Errorf("study peak heap regressed %.1fx (%d bytes vs baseline %d, limit %.1fx)",
			float64(rep.StudyPeakHeapBytes)/float64(base.StudyPeakHeapBytes),
			rep.StudyPeakHeapBytes, base.StudyPeakHeapBytes, maxRegression)
	}
	return nil
}
