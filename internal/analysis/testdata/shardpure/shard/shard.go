// Package shard is the fixture stand-in for the real shard runtime: the
// analyzer matches the entry points by package path and name, so the
// bodies here are sequential stubs.
package shard

// Run executes fn(i) for i in [0, n).
func Run(n, workers int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Map runs fn per shard and collects the per-index results.
func Map[S, R any](shards []S, workers int, fn func(i int, s S) R) []R {
	out := make([]R, len(shards))
	Run(len(shards), workers, func(i int) {
		out[i] = fn(i, shards[i])
	})
	return out
}
