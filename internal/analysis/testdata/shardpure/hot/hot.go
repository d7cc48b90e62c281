// Package hot seeds every shardpure violation class — captured map
// write, append to a shared slice, bare scalar accumulation, non-own
// index — next to the allowed patterns: fixed-slot writes, mutex-held
// writes, and invocation-local state.
package hot

import (
	"sync"

	"wearwild/internal/shard"
	"wearwild/internal/wrap"
)

// MapWrite inserts into a captured map from shard workers.
func MapWrite() map[int]int {
	agg := map[int]int{}
	shard.Run(4, 2, func(i int) {
		agg[i] = i // want shardpure
	})
	return agg
}

// Append grows a captured slice from shard workers.
func Append() []int {
	var out []int
	shard.Run(4, 2, func(i int) {
		out = append(out, i) // want shardpure
	})
	return out
}

// Scalar accumulates into a captured int from shard workers.
func Scalar() int {
	total := 0
	shard.Run(4, 2, func(i int) {
		total += i // want shardpure
	})
	return total
}

// ConstIndex writes a shared slot every worker fights over: the index
// is not derived from the callback's own parameters.
func ConstIndex() []int {
	out := make([]int, 4)
	shard.Run(4, 2, func(i int) {
		out[0] = i // want shardpure
	})
	return out
}

// FixedSlot is the sanctioned pattern: each invocation owns slot i.
func FixedSlot() []int {
	out := make([]int, 4)
	shard.Run(4, 2, func(i int) {
		out[i] = i * i
	})
	return out
}

// DerivedSlot indexes through a local computed from the parameter:
// still the callback's own state.
func DerivedSlot() []int {
	out := make([]int, 8)
	shard.Run(4, 2, func(i int) {
		lo := 2 * i
		out[lo] = i
		out[lo+1] = i
	})
	return out
}

// UnderMutex takes the lock before touching shared state.
func UnderMutex() int {
	var mu sync.Mutex
	total := 0
	shard.Run(4, 2, func(i int) {
		mu.Lock()
		total += i
		mu.Unlock()
	})
	return total
}

// MapCallback returns per-index results: nothing captured is written.
func MapCallback(shards [][]int) []int {
	return shard.Map(shards, 2, func(_ int, s []int) int {
		sum := 0
		for _, v := range s {
			sum += v
		}
		return sum
	})
}

// MapCapture leaks a captured map write out of a shard.Map callback.
func MapCapture(shards [][]int) map[int]int {
	seen := map[int]int{}
	shard.Map(shards, 2, func(i int, s []int) int {
		seen[i] = len(s) // want shardpure
		return 0
	})
	return seen
}

// Wrapped reaches the runtime through one forwarding hop.
func Wrapped() map[int]int {
	agg := map[int]int{}
	wrap.Go(4, func(i int) {
		agg[i] = i // want shardpure
	})
	return agg
}

// Wrapped2 reaches it through two hops.
func Wrapped2() int {
	total := 0
	wrap.Go2(4, func(i int) {
		total += i // want shardpure
	})
	return total
}

// global is package-level state shared by every record call.
var global = map[int]int{}

// record is a named callback: its captured write is judged in its own
// declaration.
func record(i int) {
	global[i] = i // want shardpure
}

// Named registers the named function as the callback.
func Named() {
	shard.Run(4, 2, record)
}

// Sequential does the same captured writes with no shard runtime in
// sight: shardpure must stay silent.
func Sequential() map[int]int {
	agg := map[int]int{}
	for i := 0; i < 4; i++ {
		agg[i] = i
	}
	return agg
}
