package sim

import (
	"math/rand"
	"testing"
)

// checkPlan asserts the structural invariants every shard plan must satisfy:
// boundaries are ascending, start at 0, end at nitems (each item covered
// exactly once), the shard count never exceeds maxShards, and no shard is
// empty when nitems > 0.
func checkPlan(t *testing.T, plan []int32, nitems, maxShards int) {
	t.Helper()
	if len(plan) < 2 {
		t.Fatalf("plan %v has no shards", plan)
	}
	if plan[0] != 0 || plan[len(plan)-1] != int32(nitems) {
		t.Fatalf("plan %v does not cover [0,%d)", plan, nitems)
	}
	nshards := len(plan) - 1
	if nshards > maxShards {
		t.Fatalf("plan %v has %d shards, max %d", plan, nshards, maxShards)
	}
	for s := 0; s < nshards; s++ {
		if plan[s+1] < plan[s] {
			t.Fatalf("plan %v has descending boundary at %d", plan, s)
		}
		if nitems > 0 && plan[s+1] == plan[s] {
			t.Fatalf("plan %v has empty shard %d", plan, s)
		}
	}
}

// sliceWeight adapts a weight slice to weightedShards.
func sliceWeight(w []int64) func(int) int64 { return func(i int) int64 { return w[i] } }

func TestWeightedShardsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var plan []int32
	for trial := 0; trial < 300; trial++ {
		nitems := rng.Intn(200)
		maxShards := 1 + rng.Intn(12)
		weights := make([]int64, nitems)
		total := int64(0)
		for i := range weights {
			// Mix of zero, small, and spiky weights — the delivery phase's
			// real distribution (leaves receive one word, hubs hundreds).
			switch rng.Intn(4) {
			case 0:
				weights[i] = 0
			case 1:
				weights[i] = int64(1 + rng.Intn(4))
			default:
				weights[i] = int64(rng.Intn(500))
			}
			total += weights[i]
		}
		plan = weightedShards(plan, nitems, maxShards, sliceWeight(weights), total)
		checkPlan(t, plan, nitems, maxShards)
	}
}

// TestWeightedShardsBalance checks the point of weighted cutting: on a
// skewed distribution the heaviest shard carries far less than an
// equal-count cut would give it, and no shard exceeds the ideal share by
// more than one item's weight (the greedy bound).
func TestWeightedShardsBalance(t *testing.T) {
	const nitems, shards = 100, 4
	weights := make([]int64, nitems)
	total := int64(0)
	// One hub with 1000 words at the front, leaves with 1 behind it. An
	// equal-count cut gives shard 0 the hub plus 24 leaves; the weighted
	// cut should isolate the hub.
	weights[0] = 1000
	total += 1000
	for i := 1; i < nitems; i++ {
		weights[i] = 1
		total++
	}
	plan := weightedShards(nil, nitems, shards, sliceWeight(weights), total)
	checkPlan(t, plan, nitems, shards)
	if plan[1] != 1 {
		t.Fatalf("plan %v: hub not isolated in its own shard", plan)
	}
	// Remaining 99 unit-weight items across 3 shards: each within one item
	// of the ideal 33.
	for s := 1; s < len(plan)-1; s++ {
		if size := plan[s+1] - plan[s]; size < 31 || size > 35 {
			t.Fatalf("plan %v: trailing shard %d has %d items, want ~33", plan, s, size)
		}
	}
}

func TestWeightedShardsEdgeCases(t *testing.T) {
	// Zero items.
	plan := weightedShards(nil, 0, 4, sliceWeight(nil), 0)
	if len(plan) != 2 || plan[0] != 0 || plan[1] != 0 {
		t.Fatalf("empty plan = %v, want [0 0]", plan)
	}
	// One shard swallows everything.
	plan = weightedShards(plan, 10, 1, sliceWeight(make([]int64, 10)), 0)
	if len(plan) != 2 || plan[1] != 10 {
		t.Fatalf("single-shard plan = %v, want [0 10]", plan)
	}
	// More shards than items: one item each.
	w := []int64{5, 5, 5}
	plan = weightedShards(plan, 3, 8, sliceWeight(w), 15)
	checkPlan(t, plan, 3, 3)
	if len(plan) != 4 {
		t.Fatalf("plan %v: want one item per shard", plan)
	}
	// All-zero weights still cover every item.
	plan = weightedShards(plan, 7, 3, sliceWeight(make([]int64, 7)), 0)
	checkPlan(t, plan, 7, 3)
}

// TestWorkerPoolReuse checks the pool dispatches every worker index exactly
// once per run and is reusable across many runs without growing.
func TestWorkerPoolReuse(t *testing.T) {
	p := newWorkerPool()
	defer close(p.quit)
	hits := make([]int64, 8)
	for run := 0; run < 50; run++ {
		for i := range hits {
			hits[i] = 0
		}
		workers := 1 + run%len(hits)
		p.run(workers, func(w int) { hits[w]++ })
		for w := 0; w < workers; w++ {
			if hits[w] != 1 {
				t.Fatalf("run %d: worker %d ran %d times", run, w, hits[w])
			}
		}
		for w := workers; w < len(hits); w++ {
			if hits[w] != 0 {
				t.Fatalf("run %d: worker %d ran outside its width", run, w)
			}
		}
	}
	if p.spawned > len(hits)-1 {
		t.Fatalf("pool spawned %d goroutines for %d-way fan-outs", p.spawned, len(hits))
	}
}
