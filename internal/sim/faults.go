package sim

import "repro/internal/faults"

// Fault injection (Config.Faults): the engine interposes the compiled
// fault plan on its delivery phase. Every decision is a pure function of
// (plan seed, fault kind, round, sender, receiver) — see package faults —
// so the injected behavior is bit-identical across shard counts, worker
// placement and both schedulers, and checkpoint cut-and-resume only
// has to carry the crash cursor (derivable from the round) and the
// per-channel delay arming (serialized in snapshots).
//
// Semantics, in delivery order:
//
//   - Crash-stop: a node listed in the plan is killed on the spine at the
//     start of its crash round's step — its Round handler never runs
//     again, it leaves the scheduled set and the quiescence count. Words
//     it queued before crashing are in-flight and drain normally; words
//     addressed to it keep draining from their channels at B words per
//     round but are dropped instead of delivered, so crashed hubs do not
//     wedge the network.
//   - Delay: when an active edge first attempts delivery, it draws k once
//     (adversarial table entry, else uniform from [0, DelayMax]) and arms
//     at round+k; until then nothing pops and the edge stays active. The
//     draw is per activation burst, not per word: once armed, the burst
//     drains at B words per round in FIFO order.
//   - Loss: each popped batch flips a per-(round, edge) coin; a lost
//     batch is dropped after popping (bandwidth is consumed — the words
//     were transmitted, then corrupted).
//   - Duplication: each delivered batch flips a second coin; a duplicated
//     batch appears twice in the receiver's inbox in the same round.
//
// Under faults the activity scheduler stops assuming "every active
// channel delivers" and schedules receivers from their post-delivery
// inboxes instead — exactly the dense reference's criterion — so the two
// schedulers stay bit-identical with faults on.

// FaultEvent is a fault-layer occurrence streamed through Hooks.Fault on
// the engine's sequential spine, in deterministic (round, node) order.
type FaultEvent struct {
	// Kind is the event kind; "crash" is the only kind currently emitted
	// (loss/dup/delay are aggregated in Metrics.Faults — per-event
	// streams for coin flips would dominate the hook stream).
	Kind string
	// Node is the affected node.
	Node int
	// Round is the round the fault takes effect.
	Round int
}

// FaultKindCrash is the Kind of a crash-stop FaultEvent.
const FaultKindCrash = "crash"

// FaultMetrics aggregates the fault layer's interventions during a run.
type FaultMetrics struct {
	NodesCrashed      int   // crash-stop kills applied
	WordsLost         int64 // words dropped by loss coins
	WordsDuplicated   int64 // extra words delivered by duplication coins
	WordsDroppedCrash int64 // words drained toward crashed receivers
	DelayedDeliveries int64 // channel-round delivery attempts deferred by arming
}

// faultState is the engine's mutable fault runtime. All mutation happens
// either on the sequential spine (dead set, crash cursor) or under the
// delivery phase's receiver-ownership discipline (armAt/armStamp of a
// receiver's in-channels), so it needs no synchronization.
type faultState struct {
	comp    *faults.Compiled
	crashes []faults.Crash

	hasLoss  bool
	hasDup   bool
	hasDelay bool

	// nextCrash cursors the sorted crash schedule; dead marks killed
	// nodes. Both are derivable from the round, so snapshots omit them.
	nextCrash int
	dead      []bool

	// Delay arming, indexed by channel like the queues and
	// epoch-stamped: channel c is armed iff armStamp[c] == engine epoch,
	// and then delivers no earlier than round armAt[c]. Cleared when the
	// channel drains so the next activation burst redraws. Nil unless the
	// plan has delay.
	armAt    []int32
	armStamp []uint32
	// Broadcast-mode arming for the per-sender shared channel.
	bcastArmAt    []int32
	bcastArmStamp []uint32
}

// newFaultState validates the plan against the graph and builds the
// engine's fault runtime. Called from NewEngine for non-empty plans; the
// per-channel arming slabs are sized by resizeEdges when the engine binds
// its topology.
func newFaultState(plan *faults.Plan, n int, bcast bool) (*faultState, error) {
	if err := plan.ValidateFor(n); err != nil {
		return nil, err
	}
	comp, err := plan.Compile()
	if err != nil {
		return nil, err
	}
	f := &faultState{
		comp:     comp,
		crashes:  comp.Crashes(),
		hasLoss:  comp.HasLoss(),
		hasDup:   comp.HasDup(),
		hasDelay: comp.HasDelay(),
		dead:     make([]bool, n),
	}
	if f.hasDelay && bcast {
		f.bcastArmAt = make([]int32, n)
		f.bcastArmStamp = make([]uint32, n)
	}
	return f, nil
}

// resizeEdges sizes the per-channel arming slabs to the channel count of
// the topology the engine just bound, reusing their capacity. The engine
// is drained at that point, so contents need no migration (the epoch bump
// invalidated every stamp).
func (f *faultState) resizeEdges(nedges int) {
	if f == nil || !f.hasDelay {
		return
	}
	if cap(f.armAt) < nedges {
		f.armAt = make([]int32, nedges)
		f.armStamp = make([]uint32, nedges)
	}
	f.armAt = f.armAt[:nedges]
	f.armStamp = f.armStamp[:nedges]
}

// clearRun resets the fault runtime for a fresh run. Arming stamps are
// invalidated wholesale by the engine's epoch bump.
func (f *faultState) clearRun() {
	if f == nil {
		return
	}
	f.nextCrash = 0
	clear(f.dead)
}

// isDead reports whether node v has crash-stopped. Safe on a nil state.
func (e *Engine) isDead(v int) bool {
	return e.flt != nil && e.flt.dead[v]
}

// FaultPlanHash returns the Fingerprint of the engine's fault plan (0
// for fault-free engines) — the identity snapshots validate on restore.
func (e *Engine) FaultPlanHash() uint64 {
	if e.flt == nil {
		return 0
	}
	return e.flt.comp.Hash()
}

// applyDueCrashes processes, on the sequential spine at the start of a
// step, every scheduled crash whose round has arrived: the node is
// marked dead, removed from the quiescence count and its wheel entry
// invalidated, and the crash event fires before this round's Round hook.
// The fast-forward bound in nextEventRound guarantees the activity
// scheduler steps at every crash round, so both schedulers kill at the
// exact scheduled round.
func (e *Engine) applyDueCrashes() {
	f := e.flt
	for f.nextCrash < len(f.crashes) && f.crashes[f.nextCrash].Round <= e.round {
		c := f.crashes[f.nextCrash]
		f.nextCrash++
		if f.dead[c.Node] {
			continue // duplicate entry; the earliest round won
		}
		f.dead[c.Node] = true
		e.metrics.Faults.NodesCrashed++
		if !e.doneMark[c.Node] {
			e.doneMark[c.Node] = true
			e.notDone--
		}
		e.nextWake[c.Node] = -1
		if e.hooks.Fault != nil {
			e.hooks.Fault(FaultEvent{Kind: FaultKindCrash, Node: c.Node, Round: c.Round})
		}
	}
}

// nextCrashRound returns the round of the earliest unprocessed crash, or
// maxInt. It bounds nextEventRound so idle fast-forwards never jump over
// a kill.
func (e *Engine) nextCrashRound() int {
	f := e.flt
	if f == nil || f.nextCrash >= len(f.crashes) {
		return maxInt
	}
	return f.crashes[f.nextCrash].Round
}

// deliverToFaulty is deliverTo with the fault plan interposed; see the
// file comment for the gating order (dead receiver, delay arming, loss,
// duplication). Like deliverTo it touches only receiver-owned state plus
// the caller's counters, so sharded delivery stays lock-free; the coins
// are pure functions, so shard placement cannot change them.
func (e *Engine) deliverToFaulty(v int32, shard *deliveryShard, a *sendArena) {
	f := e.flt
	b := e.cfg.BandwidthWords
	dead := f.dead[v]
	lo := e.commOffs[v]
	act := e.active[lo : lo+e.nactive[v]]
	keep := act[:0]
	for _, c := range act {
		q := &e.queues[c]
		from := e.commTgts[c]
		if f.hasDelay && !dead {
			if f.armStamp[c] != e.epoch {
				f.armStamp[c] = e.epoch
				k := f.comp.DelayFor(e.round, int(from), int(v))
				f.armAt[c] = int32(e.round + k)
			}
			if int32(e.round) < f.armAt[c] {
				shard.delayed++
				keep = append(keep, c) // nothing pops; the channel stays active
				continue
			}
		}
		ws := a.pop(q, e.arenaOf(from), b)
		if nw := int64(len(ws)); nw > 0 {
			shard.popped += nw
			shard.moved = true
			switch {
			case dead:
				shard.crashDrop += nw
			case f.hasLoss && f.comp.Lose(e.round, int(from), int(v)):
				shard.lost += nw
			default:
				e.inboxes[v] = append(e.inboxes[v], Delivery{From: int(from), Words: ws})
				shard.messages++
				shard.words += nw
				e.metrics.PerNodeWordsRecv[v] += nw
				if f.hasDup && f.comp.Duplicate(e.round, int(from), int(v)) {
					e.inboxes[v] = append(e.inboxes[v], Delivery{From: int(from), Words: ws})
					shard.messages++
					shard.words += nw
					e.metrics.PerNodeWordsRecv[v] += nw
					shard.dup += nw
				}
			}
		}
		if q.n != 0 {
			keep = append(keep, c)
		} else if f.hasDelay {
			f.armStamp[c] = 0 // next activation burst redraws
		}
	}
	e.nactive[v] = int32(len(keep))
}

// foldFaultShard folds one delivery shard's fault counters into the run
// metrics (spine only) and returns the words actually popped from queues
// — the quantity the global queued-word account must be debited by,
// which under faults differs from words delivered (lost and crash-
// dropped words popped without delivering; duplicated words delivered
// without popping).
func (e *Engine) foldFaultShard(sh *deliveryShard) int64 {
	fm := &e.metrics.Faults
	fm.WordsLost += sh.lost
	fm.WordsDuplicated += sh.dup
	fm.WordsDroppedCrash += sh.crashDrop
	fm.DelayedDeliveries += sh.delayed
	return sh.popped
}

// bcastFaultGate applies delay arming to broadcast sender u's shared
// channel on the spine. It reports whether the channel is still waiting
// for its arm round (in which case nothing pops this round).
func (e *Engine) bcastFaultGate(u int32) bool {
	f := e.flt
	if f == nil || !f.hasDelay {
		return false
	}
	if f.bcastArmStamp[u] != e.epoch {
		f.bcastArmStamp[u] = e.epoch
		k := f.comp.DelayFor(e.round, int(u), int(u))
		f.bcastArmAt[u] = int32(e.round + k)
	}
	if int32(e.round) < f.bcastArmAt[u] {
		e.metrics.Faults.DelayedDeliveries++
		return true
	}
	return false
}
