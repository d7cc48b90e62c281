package main

import (
	"sync"
	"sync/atomic"
	"time"

	"wearwild/internal/mnet/devicedb"
	"wearwild/internal/mnet/proxylog"
	"wearwild/internal/mnet/replay"
)

// flow is one replayed record as the client saw it.
type flow struct {
	rec proxylog.Record
	dur time.Duration // dial to last byte
	err error
}

// wearableFlows keeps the proxy records of SIM-enabled wearables, in log
// order: the traffic the paper's proxy collected from the devices it
// studies.
func wearableFlows(db *devicedb.DB, recs []proxylog.Record) []proxylog.Record {
	var out []proxylog.Record
	for _, r := range recs {
		if db.IsWearable(r.IMEI) {
			out = append(out, r)
		}
	}
	return out
}

// loopRun is one closed-loop replay: every flow attempted, the wall time
// the clients ran, and when the last flow returned.
type loopRun struct {
	flows      []flow
	wall       time.Duration
	lastReturn time.Time
}

// replayLoop runs a closed loop of clients over the harness: each client
// replays the next record (cycling through recs) as soon as its previous
// flow returns. It stops starting flows once budget has elapsed (budget 0:
// no time limit) or limit flows have started (limit 0: no count limit).
// With a tracer, each flow is an op: a root span and one replay.Replay
// child, numbered from firstOp.
func replayLoop(h *replay.Harness, recs []proxylog.Record, clients int, budget time.Duration, limit int, tr *tracer, firstOp int) loopRun {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		run  loopRun
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []flow
			var ret time.Time
			for {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (budget > 0 && time.Since(start) >= budget) {
					break
				}
				rec := recs[i%len(recs)]
				op := firstOp + i
				root := tr.begin("op", noSpan, op)
				s := tr.begin("replay.Replay", root, op)
				t0 := time.Now()
				err := h.Replay(rec)
				ret = time.Now()
				tr.end(s)
				tr.end(root)
				mine = append(mine, flow{rec: rec, dur: ret.Sub(t0), err: err})
			}
			mu.Lock()
			run.flows = append(run.flows, mine...)
			if ret.After(run.lastReturn) {
				run.lastReturn = ret
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	return run
}

// drainDeadline bounds how long the benchmark waits, after the last flow
// returned, for the proxy to log every flow.
const drainDeadline = 3 * time.Second

// drain waits until the harness has captured want records beyond the
// first base, or the deadline passes, and returns the new records and the
// lag from the last flow's return to the moment the last of them was seen.
func drain(h *replay.Harness, base, want int, lastReturn time.Time) ([]proxylog.Record, time.Duration) {
	deadline := lastReturn.Add(drainDeadline)
	for {
		got := h.Captured()[base:]
		now := time.Now()
		if len(got) >= want || now.After(deadline) {
			return got, max(0, now.Sub(lastReturn))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// flowFailures classifies a replay's failed flows. The capture carries no
// flow id, so records are matched to flows as replay.Verify matches them,
// by (scheme, host) multiset; the four counts are each exact, and a flow
// that fails two ways counts in both.
type flowFailures struct {
	errors     int // Replay returned an error
	uncaptured int // no record by the drain deadline
	truncated  int // captured with Drop != DropNone
	mismatched int // captured, but no sent flow has its scheme and host
	hostMatch  float64
}

func classifyFlows(flows []flow, captured []proxylog.Record) flowFailures {
	sent := make([]proxylog.Record, len(flows))
	var f flowFailures
	for i, fl := range flows {
		sent[i] = fl.rec
		if fl.err != nil {
			f.errors++
		}
	}
	for _, c := range captured {
		if c.Drop != proxylog.DropNone {
			f.truncated++
		}
	}
	v := replay.Verify(sent, captured)
	f.uncaptured = max(0, len(sent)-len(captured))
	f.mismatched = min(len(sent), len(captured)) - v.HostMatches
	f.hostMatch = ratio(float64(v.HostMatches), float64(len(sent)))
	return f
}

// failed is the number of failed flows out of attempted: the sum of the
// four classes, capped at the number attempted.
func (f flowFailures) failed(attempted int) int {
	return min(attempted, f.errors+f.uncaptured+f.truncated+f.mismatched)
}
