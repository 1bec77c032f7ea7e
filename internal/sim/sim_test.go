package sim

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
)

func TestWordBits(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := WordBits(n); got != want {
			t.Errorf("WordBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestRoundsFor(t *testing.T) {
	cases := []struct{ words, b, want int }{
		{0, 2, 0}, {-3, 2, 0}, {1, 2, 1}, {2, 2, 1}, {3, 2, 2}, {7, 3, 3}, {9, 3, 3}, {10, 3, 4},
	}
	for _, c := range cases {
		if got := RoundsFor(c.words, c.b); got != c.want {
			t.Errorf("RoundsFor(%d,%d) = %d, want %d", c.words, c.b, got, c.want)
		}
	}
}

// recorder is a scriptable test node.
type recorder struct {
	initFn  func(ctx *Context)
	roundFn func(ctx *Context, round int, inbox []Delivery)
}

func (r *recorder) Init(ctx *Context) {
	if r.initFn != nil {
		r.initFn(ctx)
	}
}

func (r *recorder) Round(ctx *Context, round int, inbox []Delivery) {
	if r.roundFn != nil {
		r.roundFn(ctx, round, inbox)
	}
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		if err := b.AddEdge(v, v+1); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

// TestBandwidthTrickle: a 7-word payload at B=2 must arrive in chunks of
// 2,2,2,1 over rounds 1..4, in FIFO order.
func TestBandwidthTrickle(t *testing.T) {
	g := pathGraph(2)
	var got [][]Word
	nodes := []Node{
		&recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			if round == 0 {
				ctx.Send(0, 10, 11, 12, 13, 14, 15, 16)
			}
			ctx.SetDone()
		}},
		&recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			for _, d := range inbox {
				cp := append([]Word(nil), d.Words...)
				got = append(got, cp)
			}
			ctx.SetDone()
		}},
	}
	eng, err := NewEngine(g, nodes, Config{BandwidthWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	want := [][]Word{{10, 11}, {12, 13}, {14, 15}, {16}}
	if len(got) != len(want) {
		t.Fatalf("deliveries %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("chunk %d: %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("chunk %d: %v, want %v", i, got[i], want[i])
			}
		}
	}
	m := eng.Metrics()
	if m.WordsDelivered != 7 || m.MessagesDelivered != 4 {
		t.Fatalf("metrics words=%d msgs=%d", m.WordsDelivered, m.MessagesDelivered)
	}
	if m.PerNodeWordsRecv[1] != 7 || m.PerNodeWordsSent[0] != 7 {
		t.Fatal("per-node accounting wrong")
	}
	if m.BitsReceived(1) != 7*int64(WordBits(2)) {
		t.Fatal("bits accounting wrong")
	}
}

// TestChannelsAreIndependent: both directions of an edge and different
// edges have independent B budgets.
func TestChannelsAreIndependent(t *testing.T) {
	g := pathGraph(3) // 0-1-2
	recv := map[int]int{}
	mk := func(id int) Node {
		return &recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			for _, d := range inbox {
				recv[ctx.ID()] += len(d.Words)
			}
			if round == 0 {
				ctx.Broadcast(Word(id), Word(id))
			}
			ctx.SetDone()
		}}
	}
	nodes := []Node{mk(0), mk(1), mk(2)}
	eng, err := NewEngine(g, nodes, Config{BandwidthWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	// All broadcasts fit in one round each: everything lands at round 1.
	if eng.Round() > 2 {
		t.Fatalf("took %d rounds; channels not independent", eng.Round())
	}
	if recv[0] != 2 || recv[1] != 4 || recv[2] != 2 {
		t.Fatalf("recv = %v", recv)
	}
}

func TestSendToAndNbrIndexOf(t *testing.T) {
	g := graph.Complete(5)
	var hits []int
	nodes := make([]Node, 5)
	for v := 0; v < 5; v++ {
		v := v
		nodes[v] = &recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			for _, d := range inbox {
				hits = append(hits, d.From)
			}
			if round == 0 && ctx.ID() == 2 {
				if ctx.NbrIndexOf(2) != -1 {
					t.Error("self is not a neighbor")
				}
				ctx.SendTo(4, 99)
			}
			ctx.SetDone()
		}}
	}
	eng, err := NewEngine(g, nodes, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestSendPanicsOnBadIndex(t *testing.T) {
	g := pathGraph(2)
	nodes := []Node{
		&recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			defer func() {
				if recover() == nil {
					t.Error("Send(5) did not panic")
				}
			}()
			ctx.Send(5, 1)
		}},
		&recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) { ctx.SetDone() }},
	}
	eng, err := NewEngine(g, nodes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(1)
}

func TestCliqueModeTopology(t *testing.T) {
	// Input graph: a path; clique mode must give full comm connectivity
	// while InputNeighbors stays the path.
	g := pathGraph(4)
	checked := false
	nodes := make([]Node, 4)
	for v := 0; v < 4; v++ {
		nodes[v] = &recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			if ctx.ID() == 0 && round == 0 {
				if ctx.CommDegree() != 3 {
					t.Errorf("comm degree %d, want 3", ctx.CommDegree())
				}
				if len(ctx.InputNeighbors()) != 1 || ctx.InputNeighbors()[0] != 1 {
					t.Errorf("input neighbors %v", ctx.InputNeighbors())
				}
				if !ctx.HasInputEdge(1) || ctx.HasInputEdge(3) {
					t.Error("HasInputEdge wrong")
				}
				ctx.SendTo(3, 42) // non-input-neighbor, fine in clique
				checked = true
			}
			ctx.SetDone()
		}}
	}
	eng, err := NewEngine(g, nodes, Config{Mode: ModeClique, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("assertions never ran")
	}
	if eng.Metrics().WordsDelivered != 1 {
		t.Fatal("clique send lost")
	}
}

func TestRunUntilQuiescentMaxRounds(t *testing.T) {
	g := pathGraph(2)
	// Node 0 never declares done.
	nodes := []Node{
		&recorder{},
		&recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) { ctx.SetDone() }},
	}
	eng, err := NewEngine(g, nodes, Config{Seed: 1, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != ErrMaxRounds {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestSleepUntilWokenByDelivery(t *testing.T) {
	g := pathGraph(2)
	var calls []int
	nodes := []Node{
		&recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			if round == 3 {
				ctx.Send(0, 7)
			}
			if round > 4 {
				ctx.SetDone()
			}
		}},
		&recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			calls = append(calls, round)
			if len(inbox) > 0 {
				ctx.SetDone()
				return
			}
			ctx.SleepUntil(math.MaxInt32) // sleep forever unless woken
		}},
	}
	eng, err := NewEngine(g, nodes, Config{Seed: 1, MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	// Node 1 runs at round 0 (initial), then only at round 4 (delivery).
	if len(calls) != 2 || calls[0] != 0 || calls[1] != 4 {
		t.Fatalf("calls = %v, want [0 4]", calls)
	}
}

func TestOutputsAndUnion(t *testing.T) {
	g := graph.Complete(3)
	nodes := make([]Node, 3)
	for v := 0; v < 3; v++ {
		nodes[v] = &recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			ctx.Output(graph.NewTriangle(0, 1, 2))
			ctx.SetDone()
		}}
	}
	eng, err := NewEngine(g, nodes, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	outs := eng.Outputs()
	if len(outs) != 3 || len(outs[0]) != 1 {
		t.Fatalf("outputs = %v", outs)
	}
}

func TestNodeSeedsDifferAndAreDeterministic(t *testing.T) {
	a0, a1 := nodeSeed(5, 0), nodeSeed(5, 1)
	b0 := nodeSeed(5, 0)
	if a0 == a1 {
		t.Fatal("adjacent node seeds collide")
	}
	if a0 != b0 {
		t.Fatal("node seed not deterministic")
	}
	if nodeSeed(6, 0) == a0 {
		t.Fatal("engine seeds do not separate streams")
	}
	if a0 < 0 {
		t.Fatal("node seeds are masked to 63 bits; a negative seed means the derivation changed")
	}
}

// TestNodeStreamPinned pins the first three draws of engine seed 1, node 0,
// through Context.RNG. Snapshots record only a draw count, so a count
// taken under one generator is meaningless under another: changing the
// stream means bumping snapVersion and adding its pins here on purpose.
func TestNodeStreamPinned(t *testing.T) {
	pins := map[uint32][3]uint64{
		3: {0xb7d9d44da50c8456, 0xf4adabc84c8b3e6c, 0x69442a86b875d5ee},
		4: {0xb7d9d44da50c8456, 0xf4adabc84c8b3e6c, 0x69442a86b875d5ee},
	}
	want, ok := pins[snapVersion]
	if !ok {
		t.Fatalf("no pinned draws for snapVersion %d", snapVersion)
	}
	var got [3]uint64
	nodes := []Node{&recorder{initFn: func(ctx *Context) {
		for i := range got {
			got[i] = ctx.RNG().Uint64()
		}
		ctx.SetDone()
	}}}
	eng, err := NewEngine(pathGraph(1), nodes, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("seed 1 node 0 draws = %#x, want %#x", got, want)
	}
}

func TestEngineRejectsWrongNodeCount(t *testing.T) {
	g := pathGraph(3)
	if _, err := NewEngine(g, make([]Node, 2), Config{}); err == nil {
		t.Fatal("mismatched node count accepted")
	}
}

func TestContextAccessors(t *testing.T) {
	g := pathGraph(3)
	checked := false
	nodes := make([]Node, 3)
	for v := 0; v < 3; v++ {
		nodes[v] = &recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			if ctx.ID() == 1 && round == 0 {
				if ctx.N() != 3 {
					t.Errorf("N = %d", ctx.N())
				}
				if ctx.Bandwidth() != 4 {
					t.Errorf("Bandwidth = %d", ctx.Bandwidth())
				}
				if ctx.RNG() == nil {
					t.Error("nil RNG")
				}
				if got := ctx.CommNeighbors(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
					t.Errorf("CommNeighbors = %v", got)
				}
				checked = true
			}
			ctx.SetDone()
		}}
	}
	eng, err := NewEngine(g, nodes, Config{BandwidthWords: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("assertions never ran")
	}
}

// TestParallelEngineInPackage runs the worker-pool path directly with many
// nodes, checking output parity against the sequential engine and, where
// GOMAXPROCS allows, that the sharded phases really fanned out.
func TestParallelEngineInPackage(t *testing.T) {
	g := graph.Complete(40)
	mkNodes := func() []Node {
		nodes := make([]Node, 40)
		for v := 0; v < 40; v++ {
			nodes[v] = &recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
				if round == 0 {
					// Random payload from the node's private stream.
					ctx.Broadcast(Word(ctx.RNG().Intn(1000)), Word(ctx.ID()))
				}
				for range inbox {
					ctx.Output(graph.NewTriangle(0, 1, 2))
				}
				if round > 2 {
					ctx.SetDone()
				}
			}}
		}
		return nodes
	}
	run := func(shards int) (Metrics, int) {
		eng, err := NewEngine(g, mkNodes(), Config{Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.RunUntilQuiescent(); err != nil {
			t.Fatal(err)
		}
		if shards > 1 && runtime.GOMAXPROCS(0) > 1 {
			assertPoolRan(t, "complete(40)", eng)
		}
		outs := 0
		for _, o := range eng.Outputs() {
			outs += len(o)
		}
		return eng.Metrics(), outs
	}
	ms, os := run(0)
	mp, op := run(4)
	if ms.WordsDelivered != mp.WordsDelivered || os != op || ms.Rounds != mp.Rounds {
		t.Fatalf("parallel parity broken: %v/%d vs %v/%d",
			ms.WordsDelivered, os, mp.WordsDelivered, op)
	}
	if ms.TotalBits() != ms.WordsDelivered*int64(ms.WordBits) {
		t.Fatal("TotalBits formula drift")
	}
}

func TestPendingWords(t *testing.T) {
	g := pathGraph(2)
	nodes := []Node{
		&recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) {
			if round == 0 {
				ctx.Send(0, 1, 2, 3, 4, 5)
			}
			ctx.SetDone()
		}},
		&recorder{roundFn: func(ctx *Context, round int, inbox []Delivery) { ctx.SetDone() }},
	}
	eng, err := NewEngine(g, nodes, Config{BandwidthWords: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(1) // words enqueued, nothing delivered yet
	if eng.PendingWords() != 5 {
		t.Fatalf("pending = %d, want 5", eng.PendingWords())
	}
	eng.Run(2) // 4 of 5 delivered
	if eng.PendingWords() != 1 {
		t.Fatalf("pending = %d, want 1", eng.PendingWords())
	}
	eng.Run(1)
	if eng.PendingWords() != 0 {
		t.Fatalf("pending = %d, want 0", eng.PendingWords())
	}
}
