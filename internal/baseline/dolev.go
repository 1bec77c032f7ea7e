package baseline

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
)

// DolevVariant selects the partition granularity of the Dolev-Lenzen-Peled
// CONGEST-clique lister.
type DolevVariant int

const (
	// DolevCubeRoot partitions V into ceil(n^{1/3}) groups — the
	// O(n^{1/3} (log n)^{2/3})-round variant of Table 1.
	DolevCubeRoot DolevVariant = iota + 1
	// DolevDegreeAware sizes groups by d_max — the degree-sensitive
	// O(d_max^3 / n)-style variant of Table 1 (fast on sparse graphs).
	DolevDegreeAware
)

// dolevPlan is the deterministic, globally-known routing plan: the group
// partition and the assignment of sorted group triples to nodes. All nodes
// derive the identical plan from (n, variant, d_max), mirroring the
// deterministic algorithm. The sorted triples a <= b <= c are numbered in
// lexicographic order, and node idx mod n owns triple idx; the index has a
// closed form, so the plan is three integers however many triples there
// are.
type dolevPlan struct {
	n         int
	groupSize int
	numGroups int
}

func newDolevPlan(n int, variant DolevVariant, maxDegree int) (dolevPlan, error) {
	if n < 1 {
		return dolevPlan{}, fmt.Errorf("baseline: empty network")
	}
	var gs int
	switch variant {
	case DolevCubeRoot:
		g := int(math.Ceil(math.Cbrt(float64(n))))
		if g < 1 {
			g = 1
		}
		gs = (n + g - 1) / g
	case DolevDegreeAware:
		gs = maxDegree
		if gs < 1 {
			gs = 1
		}
		if gs > n {
			gs = n
		}
	default:
		return dolevPlan{}, fmt.Errorf("baseline: unknown Dolev variant %d", variant)
	}
	return dolevPlan{n: n, groupSize: gs, numGroups: (n + gs - 1) / gs}, nil
}

func (p dolevPlan) group(v int) int { return v / p.groupSize }

// multisets returns the number of sorted triples over the last k groups:
// k(k+1)(k+2)/6.
func multisets(k int) int { return k * (k + 1) * (k + 2) / 6 }

// owner returns the node responsible for the triple of groups {a, b, c},
// given in any order. The lexicographic index of the sorted triple counts
// the triples whose first group is below a, then those that start with a
// and whose second group is below b, then c - b.
func (p dolevPlan) owner(a, b, c int) int {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	g := p.numGroups
	idx := multisets(g) - multisets(g-a) + (g-a)*(g-a+1)/2 - (g-b)*(g-b+1)/2 + c - b
	return idx % p.n
}

// dolevDests is one caller's scratch for dolevPlan.destinations: the owner
// list it returns, and, on plans with more triples than nodes, where owners
// repeat, a bitset over nodes that deduplicates it.
type dolevDests struct {
	owners []int
	seen   []uint64
}

// destinations returns the distinct owners of the triples containing the
// group pair {group(u), group(v)}, in first-occurrence order over the third
// group. The slice is d's and valid until the next call with d.
func (p dolevPlan) destinations(u, v int, d *dolevDests) []int {
	out := d.owners[:0]
	dedupe := multisets(p.numGroups) > p.n
	if dedupe && d.seen == nil {
		d.seen = make([]uint64, (p.n+63)/64)
	}
	gu, gv := p.group(u), p.group(v)
	for x := 0; x < p.numGroups; x++ {
		w := p.owner(gu, gv, x)
		if dedupe {
			if d.seen[w>>6]&(1<<(w&63)) != 0 {
				continue
			}
			d.seen[w>>6] |= 1 << (w & 63)
		}
		out = append(out, w)
	}
	if dedupe {
		for _, w := range out {
			d.seen[w>>6] = 0
		}
	}
	d.owners = out
	return out
}

// DolevRouting selects how edge announcements travel across the clique.
type DolevRouting int

const (
	// DirectRouting pushes every edge straight from its owner to each
	// responsible node. Simple, but a sender whose edges concentrate on few
	// owners congests those channels.
	DirectRouting DolevRouting = iota + 1
	// RelayRouting is a Lenzen-style two-hop balanced route: each owner
	// spreads its (destination, edge) messages round-robin over all nodes
	// as relays, and relays forward them. Per-channel load drops to
	// ~(per-node traffic)/n, the guarantee Lenzen's routing scheme provides
	// in the original Dolev et al. algorithm.
	RelayRouting
)

// NewDolev builds the Dolev-Lenzen-Peled deterministic triangle lister for
// the CONGEST clique (sim.ModeClique required) with direct routing. See
// NewDolevRouted for the Lenzen-style balanced variant.
func NewDolev(g *graph.Graph, b int, variant DolevVariant) (*sim.Schedule, func(id int) core.PhaseHandler, error) {
	return NewDolevRouted(g, b, variant, DirectRouting)
}

// NewDolevRouted builds the clique lister with the chosen routing scheme.
// Both the partition plan and the routing assignment are deterministic, so
// the exact per-channel makespan is computed from the input graph and used
// as the schedule — the measured rounds are the true round complexity of
// the run.
func NewDolevRouted(g *graph.Graph, b int, variant DolevVariant, routing DolevRouting) (*sim.Schedule, func(id int) core.PhaseHandler, error) {
	plan, err := newDolevPlan(g.N(), variant, g.MaxDegree())
	if err != nil {
		return nil, nil, err
	}
	sched := &sim.Schedule{}
	switch routing {
	case DirectRouting:
		// The announcements come sender by sender, so one array counts the
		// current sender's words per channel.
		load := make([]int, g.N())
		sender, maxLoad := -1, 0
		forEachAnnouncement(g, plan, func(u, v, w int) {
			if u != sender {
				clear(load)
				sender = u
			}
			load[w]++
			maxLoad = max(maxLoad, load[w])
		})
		sched.Add("dolev-direct", atLeast1(sim.RoundsFor(maxLoad, b)))
	case RelayRouting:
		// Replicate each node's deterministic relay assignment to size both
		// phases exactly. Scatter loads are per sender, like direct loads;
		// forward loads add up over all senders.
		scatter := make([]int, g.N())
		forward := make(map[[2]int]int)
		sender, seq := -1, 0
		max0, max1 := 0, 0
		forEachAnnouncement(g, plan, func(u, v, w int) {
			if u != sender {
				clear(scatter)
				sender, seq = u, 0
			}
			r := relayOf(u, seq, g.N())
			seq++
			scatter[r] += 2 // (dest, v)
			max0 = max(max0, scatter[r])
			if r == w {
				return // relay is the destination; no forward hop
			}
			k1 := [2]int{r, w}
			forward[k1] += 2 // (u, v)
			max1 = max(max1, forward[k1])
		})
		sched.Add("dolev-scatter", atLeast1(sim.RoundsFor(max0, b)))
		sched.Add("dolev-forward", atLeast1(sim.RoundsFor(max1, b)))
	default:
		return nil, nil, fmt.Errorf("baseline: unknown routing %d", routing)
	}
	h := func(int) core.PhaseHandler {
		h := &dolevHandler{plan: plan, routing: routing}
		if routing == RelayRouting {
			h.relayIn, h.fwdIn = core.NewFixedAssembler(2), core.NewFixedAssembler(2)
		}
		return h
	}
	return sched, h, nil
}

// forEachAnnouncement visits every (owner u, other endpoint v, responsible
// node w) triple, in the exact deterministic order nodes themselves use.
func forEachAnnouncement(g *graph.Graph, plan dolevPlan, visit func(u, v, w int)) {
	var dests dolevDests
	for u := 0; u < g.N(); u++ {
		for _, v32 := range g.Neighbors(u) {
			v := int(v32)
			if u > v {
				continue // the lower endpoint owns the edge
			}
			for _, w := range plan.destinations(u, v, &dests) {
				if w == u || w == v {
					continue // endpoints already know the edge
				}
				visit(u, v, w)
			}
		}
	}
}

// relayOf returns the relay for node u's seq-th message: cycles over all
// nodes except u, with a per-sender stagger so different senders' message
// streams do not land on the same relay in lockstep (which would re-create
// the congestion the relays exist to remove).
func relayOf(u, seq, n int) int {
	r := (seq + u*7) % (n - 1)
	if r >= u {
		r++
	}
	return r
}

func atLeast1(x int) int {
	if x < 1 {
		return 1
	}
	return x
}

type dolevHandler struct {
	plan    dolevPlan
	routing DolevRouting
	dests   dolevDests
	edges   []graph.Edge
	relayIn *core.FixedAssembler // relay routing only: phase-0 records at relays, (dest, v)
	fwdIn   *core.FixedAssembler // relay routing only: phase-1 records at owners, (u, v)
	relayed []relayMsg
}

type relayMsg struct{ dest, u, v int }

func (h *dolevHandler) Start(ctx *sim.Context, phase int) {
	me := ctx.ID()
	switch {
	case phase == 0 && h.routing == DirectRouting:
		for _, v32 := range ctx.InputNeighbors() {
			v := int(v32)
			if me > v {
				continue
			}
			for _, w := range h.plan.destinations(me, v, &h.dests) {
				if w == me || w == v {
					continue
				}
				ctx.SendTo(w, sim.Word(v))
			}
		}
	case phase == 0 && h.routing == RelayRouting:
		seq := 0
		for _, v32 := range ctx.InputNeighbors() {
			v := int(v32)
			if me > v {
				continue
			}
			for _, w := range h.plan.destinations(me, v, &h.dests) {
				if w == me || w == v {
					continue
				}
				r := relayOf(me, seq, ctx.N())
				seq++
				ctx.SendTo(r, sim.Word(w), sim.Word(v))
			}
		}
	case phase == 1 && h.routing == RelayRouting:
		// Forward everything buffered during the scatter phase.
		for _, m := range h.relayed {
			ctx.SendTo(m.dest, sim.Word(m.u), sim.Word(m.v))
		}
		h.relayed = nil
	}
}

func (h *dolevHandler) Receive(ctx *sim.Context, phase int, d sim.Delivery) {
	switch {
	case h.routing == DirectRouting:
		for _, w := range d.Words {
			h.edges = append(h.edges, graph.NewEdge(d.From, int(w)))
		}
	case phase == 0: // scatter records at relays: (dest, v) from owner u
		h.relayIn.Feed(d, func(from int, rec []sim.Word) {
			dest, v := int(rec[0]), int(rec[1])
			if dest == ctx.ID() {
				// The relay itself is the responsible node.
				h.edges = append(h.edges, graph.NewEdge(from, v))
				return
			}
			h.relayed = append(h.relayed, relayMsg{dest: dest, u: from, v: v})
		})
	case phase == 1: // forwarded records at owners: (u, v)
		h.fwdIn.Feed(d, func(from int, rec []sim.Word) {
			h.edges = append(h.edges, graph.NewEdge(int(rec[0]), int(rec[1])))
		})
	}
}

func (h *dolevHandler) Finish(ctx *sim.Context) {
	// Add locally-known incident edges: for any triple this node owns whose
	// triangles touch it, the incident edges complete the picture (owners
	// never ship an edge to one of its endpoints).
	me := ctx.ID()
	for _, v := range ctx.InputNeighbors() {
		h.edges = append(h.edges, graph.NewEdge(me, int(v)))
	}
	// A node outputs the triangles through itself and those of the group
	// triples it owns: every triangle is output at least by its triple's
	// owner, and duplicates are allowed by the listing definition.
	p := h.plan
	for _, t := range graph.TrianglesAmongEdges(h.edges) {
		if t.Contains(me) || p.owner(p.group(t.A), p.group(t.B), p.group(t.C)) == me {
			ctx.Output(t)
		}
	}
}
