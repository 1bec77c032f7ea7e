package sim

import (
	"runtime"
	"sync"
)

// Parallel execution machinery for the round stepper (see sharded.go): a
// persistent per-engine worker pool that runs one engine shard per
// goroutine, and the weighted cut that sizes the shards. The pool parks
// its goroutines on a channel between fan-outs, so a round pays no
// goroutine spawn.

// workerPool is a persistent pool of parked goroutines. run dispatches one
// contiguous shard to each worker; the caller's goroutine acts as worker 0,
// so a pool serving W-way fan-outs owns W-1 goroutines. The pool belongs to
// one engine and is never used concurrently (the engine's run loop is
// single-threaded between fan-outs), which lets run reuse one WaitGroup.
type workerPool struct {
	jobs    chan poolJob
	quit    chan struct{}
	wg      sync.WaitGroup
	spawned int
}

type poolJob struct {
	fn     func(worker int)
	worker int
	wg     *sync.WaitGroup
}

func newWorkerPool() *workerPool {
	return &workerPool{jobs: make(chan poolJob), quit: make(chan struct{})}
}

// ensure grows the pool to serve workers-way fan-outs (workers-1 parked
// goroutines). Workers exit when quit closes — the engine's cleanup,
// registered with runtime.AddCleanup, so abandoned engines do not leak
// their pools.
func (p *workerPool) ensure(workers int) {
	for p.spawned < workers-1 {
		p.spawned++
		go func() {
			for {
				select {
				case j := <-p.jobs:
					j.fn(j.worker)
					j.wg.Done()
				case <-p.quit:
					return
				}
			}
		}()
	}
}

// run executes fn(worker) for worker in [0, workers): workers 1..W-1 on the
// pool, worker 0 on the calling goroutine. It returns after every call
// completes. The channel send/receive pairs and the WaitGroup establish the
// happens-before edges that publish shard results back to the caller.
func (p *workerPool) run(workers int, fn func(worker int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	p.ensure(workers)
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		p.jobs <- poolJob{fn: fn, worker: w, wg: &p.wg}
	}
	fn(0)
	p.wg.Wait()
}

// weightedShards cuts nitems items into at most maxShards contiguous shards
// of near-equal total weight, writing the boundary list into plan (shard s
// covers [plan[s], plan[s+1])). weight(i) is item i's cost and total is
// their precomputed sum. The greedy cut re-targets the remaining weight
// over the remaining shards at every boundary, so one oversized item (a
// power-law hub) cannot starve the shards after it. Shard boundaries never
// affect observable engine state, so the plan is free to depend on degree
// weights or anything else.
func weightedShards(plan []int32, nitems, maxShards int, weight func(int) int64, total int64) []int32 {
	plan = plan[:0]
	plan = append(plan, 0)
	if maxShards > nitems {
		maxShards = nitems
	}
	if maxShards <= 1 {
		return append(plan, int32(nitems))
	}
	remaining := total
	acc := int64(0)
	i := 0
	for s := 0; s < maxShards-1 && i < nitems; s++ {
		target := (remaining + int64(maxShards-s) - 1) / int64(maxShards-s)
		start := i
		for i < nitems && (acc < target || i == start) {
			acc += weight(i)
			i++
		}
		// Never cut an empty trailing shard: stop early if everything fit.
		if i >= nitems {
			break
		}
		plan = append(plan, int32(i))
		remaining -= acc
		acc = 0
	}
	return append(plan, int32(nitems))
}

// parallelMinWords is the activity-aware sequential-fallback threshold: a
// sharded phase only pays for worker handoff when at least this many words
// move through it this round. Node counts alone are a bad proxy — a round
// can schedule thousands of nodes that each do nothing — so the delivery
// gate thresholds on queued words, the compute gate on words delivered
// this round plus scheduled nodes, and the merge gate on sent channel-
// words plus scheduled nodes (see stepSharded). A one-shard plan never
// fans out.
const parallelMinWords = 1024

// pool lazily creates the engine's worker pool, registering a cleanup that
// releases the pool's goroutines when the engine becomes unreachable.
func (e *Engine) pool() *workerPool {
	if e.wpool == nil {
		e.wpool = newWorkerPool()
		runtime.AddCleanup(e, func(quit chan struct{}) { close(quit) }, e.wpool.quit)
	}
	return e.wpool
}
