package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
)

// nbrListNode is the two-hop baseline's traffic in miniature: it
// broadcasts its whole neighbour list in Init (one copy per channel in
// the unicast models) and folds every word it receives into a digest.
type nbrListNode struct {
	digest uint64
}

func (h *nbrListNode) Init(ctx *Context) {
	ws := make([]Word, len(ctx.InputNeighbors()))
	for i, u := range ctx.InputNeighbors() {
		ws[i] = Word(u)
	}
	ctx.Broadcast(ws...)
	ctx.SetDone()
}

func (h *nbrListNode) Round(ctx *Context, round int, inbox []Delivery) {
	for _, d := range inbox {
		for _, w := range d.Words {
			h.digest = mix64(h.digest ^ uint64(d.From)<<32 ^ w)
		}
	}
}

func (h *nbrListNode) SnapshotState(w *SnapWriter) error { w.U64(h.digest); return nil }
func (h *nbrListNode) RestoreState(r *SnapReader) error  { h.digest = r.U64(); return nil }

// burstNode sends up to three messages of one to three words per round to
// random neighbours, so a channel often queues several sends of odd
// length and a B-word pop straddles a send boundary.
type burstNode struct {
	doneAt int
	digest uint64
}

func (c *burstNode) Init(ctx *Context) {
	c.doneAt = 6 + ctx.RNG().Intn(30)
}

func (c *burstNode) Round(ctx *Context, round int, inbox []Delivery) {
	for _, d := range inbox {
		for _, w := range d.Words {
			c.digest = mix64(c.digest ^ uint64(d.From)<<32 ^ w)
		}
	}
	r := ctx.RNG()
	if round >= c.doneAt {
		ctx.SetDone()
		ctx.SleepUntil(math.MaxInt32)
		return
	}
	d := ctx.CommDegree()
	if d == 0 {
		return
	}
	for k := r.Intn(4); k > 0; k-- {
		ws := make([]Word, 1+r.Intn(3))
		for i := range ws {
			ws[i] = Word(round)<<20 | Word(ctx.ID())<<2 | Word(i)
		}
		ctx.Send(r.Intn(d), ws...)
	}
}

func (c *burstNode) SnapshotState(w *SnapWriter) error {
	w.Int(c.doneAt)
	w.U64(c.digest)
	return nil
}

func (c *burstNode) RestoreState(r *SnapReader) error {
	c.doneAt = r.Int()
	c.digest = r.U64()
	return nil
}

// snapGoldenCase is one engine configuration the snapshot golden pins.
type snapGoldenCase struct {
	name string
	g    *graph.Graph
	cfg  Config
	mk   func() Node
	cut  int // rounds run before the snapshot
}

func snapGoldenCases() []snapGoldenCase {
	rng := rand.New(rand.NewSource(71))
	gnp := graph.Gnp(48, 0.15, rng)
	dense := graph.Gnp(40, 0.3, rng)
	chatter := func() Node { return &chatterNode{} }
	burst := func() Node { return &burstNode{} }
	return []snapGoldenCase{
		{"chatter/b1", gnp, Config{Seed: 3, BandwidthWords: 1}, chatter, 9},
		{"chatter/b2", gnp, Config{Seed: 3, BandwidthWords: 2}, chatter, 9},
		{"burst/b2", gnp, Config{Seed: 4, BandwidthWords: 2}, burst, 7},
		{"burst/b3", gnp, Config{Seed: 4, BandwidthWords: 3}, burst, 7},
		{"nbrlist/b2", dense, Config{Seed: 5, BandwidthWords: 2}, func() Node { return &nbrListNode{} }, 3},
		{"clique", gnp, Config{Seed: 6, Mode: ModeClique}, chatter, 9},
		{"broadcast", gnp, Config{Seed: 7, Mode: ModeBroadcast, BandwidthWords: 1}, func() Node { return &bcastChatterNode{} }, 9},
		{"faults/delay+loss", gnp, Config{Seed: 8, BandwidthWords: 2, Faults: &faults.Plan{
			Seed: 9, Loss: 0.2, DelayMax: 3,
			DelayLinks: []faults.LinkDelay{{From: 0, To: 1, K: 6}},
		}}, burst, 8},
	}
}

// snapDigest runs one case to its cut round under the given shard count
// and returns the SHA-256 of the snapshot taken there.
func snapDigest(t *testing.T, c snapGoldenCase, shards int) string {
	t.Helper()
	nodes := make([]Node, c.g.N())
	for v := range nodes {
		nodes[v] = c.mk()
	}
	cfg := c.cfg
	cfg.Shards = shards
	eng, err := NewEngine(c.g, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(c.cut)
	if eng.PendingWords() == 0 {
		t.Fatalf("%s: no words queued at round %d; the snapshot must cover queued words", c.name, c.cut)
	}
	payload, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// TestSnapshotGolden pins snapshot bytes across builds, taken while words
// are still queued on channels, so a change to how the engine stores
// queued words cannot change what a snapshot records. testdata/
// snapshots.golden holds one line per case:
//
//	<case> <sha256 of Engine.Snapshot()>
//
// Each case is taken unsharded and at Shards 4; both must hash the same.
// Regenerate after an intentional change to the snapshot format with:
//
//	UPDATE_SNAPSHOTS=1 go test ./internal/sim -run TestSnapshotGolden
func TestSnapshotGolden(t *testing.T) {
	var lines []string
	for _, c := range snapGoldenCases() {
		d := snapDigest(t, c, 0)
		if d4 := snapDigest(t, c, 4); d4 != d {
			t.Errorf("%s: 4-shard snapshot differs from the unsharded one", c.name)
		}
		lines = append(lines, fmt.Sprintf("%s %s", c.name, d))
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "snapshots.golden")
	if os.Getenv("UPDATE_SNAPSHOTS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d cases)", golden, len(lines))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_SNAPSHOTS=1 to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%s has %d cases, this build produced %d", golden, len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("snapshot bytes drifted:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
