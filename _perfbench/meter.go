package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Runtime counters the benchmark reads. /gc/heap/live:bytes is the heap
// marked live by the latest GC, so its running maximum is the peak live
// heap.
const (
	allocsMetric = "/gc/heap/allocs:bytes"
	cyclesMetric = "/gc/cycles/total:gc-cycles"
	liveMetric   = "/gc/heap/live:bytes"
)

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is what a stretch of work cost the process.
type usage struct {
	cpu    time.Duration
	alloc  uint64
	cycles uint64
}

func (u *usage) add(o usage) {
	u.cpu += o.cpu
	u.alloc += o.alloc
	u.cycles += o.cycles
}

// meter takes a usage reading at start and reports the difference.
type meter struct{ start usage }

func startMeter() meter {
	return meter{usage{cpu: cpuTime(), alloc: readUint64(allocsMetric), cycles: readUint64(cyclesMetric)}}
}

func (m meter) stop() usage {
	return usage{
		cpu:    cpuTime() - m.start.cpu,
		alloc:  readUint64(allocsMetric) - m.start.alloc,
		cycles: readUint64(cyclesMetric) - m.start.cycles,
	}
}

// heapWatch polls the live heap until stopped and keeps the highest
// reading.
type heapWatch struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapPollInterval = 5 * time.Millisecond

func watchHeap() *heapWatch {
	w := &heapWatch{done: make(chan struct{}), peak: readUint64(liveMetric)}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(heapPollInterval)
		defer tick.Stop()
		for {
			select {
			case <-w.done:
				return
			case <-tick.C:
				w.peak = max(w.peak, readUint64(liveMetric))
			}
		}
	}()
	return w
}

// stop ends the polling and returns the peak in bytes.
func (w *heapWatch) stop() uint64 {
	close(w.done)
	w.wg.Wait()
	return max(w.peak, readUint64(liveMetric))
}
