package shard

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestPartitionInvariants: every item lands in exactly one shard, items
// with equal keys share a shard, and input order survives within each
// shard.
func TestPartitionInvariants(t *testing.T) {
	items := make([]int, 10000)
	for i := range items {
		items[i] = i
	}
	key := func(v int) uint64 { return uint64(v % 257) }

	for _, shards := range []int{1, 2, 7, 32, 100} {
		parts := Partition(items, shards, key)
		if len(parts) != shards {
			t.Fatalf("shards=%d: got %d parts", shards, len(parts))
		}
		seen := make(map[int]int)
		keyShard := make(map[uint64]int)
		for si, part := range parts {
			last := -1
			for _, v := range part {
				seen[v]++
				if prev, ok := keyShard[key(v)]; ok && prev != si {
					t.Fatalf("shards=%d: key %d split across shards %d and %d", shards, key(v), prev, si)
				}
				keyShard[key(v)] = si
				if v < last {
					// items were appended in increasing order, so
					// within-shard order must be increasing too
					t.Fatalf("shards=%d: order violated in shard %d: %d after %d", shards, si, v, last)
				}
				last = v
			}
		}
		if len(seen) != len(items) {
			t.Fatalf("shards=%d: %d distinct items, want %d", shards, len(seen), len(items))
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("shards=%d: item %d appears %d times", shards, v, n)
			}
		}
	}
}

// TestPartitionDeterministic: the partition is a pure function of items
// and shard count.
func TestPartitionDeterministic(t *testing.T) {
	items := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	a := Partition(items, 4, func(v uint64) uint64 { return v })
	b := Partition(items, 4, func(v uint64) uint64 { return v })
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same input, different partitions")
	}
}

// TestRunCoversEveryIndexOnce at several worker counts, including
// workers > n and n == 0.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{0, 1, 2, 8, 2000} {
			hits := make([]int32, n)
			Run(n, workers, func(i int) {
				if i < 0 || i >= n {
					t.Errorf("n=%d workers=%d: index %d out of range", n, workers, i)
					return
				}
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestMapOrderIndependentOfWorkers: results land in shard order whatever
// the worker count.
func TestMapOrderIndependentOfWorkers(t *testing.T) {
	shards := [][]int{{1, 2}, {3}, {}, {4, 5, 6}, {7}}
	want := Map(shards, 1, func(i int, s []int) int {
		sum := i * 100
		for _, v := range s {
			sum += v
		}
		return sum
	})
	for _, workers := range []int{2, 4, 16} {
		got := Map(shards, workers, func(i int, s []int) int {
			sum := i * 100
			for _, v := range s {
				sum += v
			}
			return sum
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, got, want)
		}
	}
}

// TestHash64Spread: the finalizer must not collapse small sequential
// keys (IMSIs are sequential) onto few shards.
func TestHash64Spread(t *testing.T) {
	const shards = 32
	var used [shards]bool
	for i := uint64(0); i < 1000; i++ {
		used[Hash64(i)%shards] = true
	}
	for s, ok := range used {
		if !ok {
			t.Fatalf("shard %d never hit by 1000 sequential keys", s)
		}
	}
}

// TestWorkersAndShardsResolution pins the <=0 defaults.
func TestWorkersAndShardsResolution(t *testing.T) {
	if w := Workers(0); w < 1 {
		t.Fatalf("Workers(0) = %d", w)
	}
	if w := Workers(3); w != 3 {
		t.Fatalf("Workers(3) = %d", w)
	}
	if s := Shards(0); s != DefaultShards {
		t.Fatalf("Shards(0) = %d", s)
	}
	if s := Shards(5); s != 5 {
		t.Fatalf("Shards(5) = %d", s)
	}
}
