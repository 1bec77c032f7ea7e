// Quickstart: run the paper's Theorem-2 triangle lister on a small random
// network through the public repro/congest job API, streaming progress as
// it goes.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/congest"
)

// progress streams the run: it counts segments and rounds as the engine
// executes them, before the final Result reports the whole run.
type progress struct {
	segments, rounds int
	words            int64
}

func (p *progress) OnSegment(seg congest.SegmentInfo)       { p.segments++ }
func (p *progress) OnRound(round int, d congest.RoundDelta) { p.rounds++; p.words += d.Words }
func (p *progress) OnTriangle(node int, t congest.Triangle) {}

func main() {
	// 1. One declarative job: the input graph — G(n, 1/2), the dense
	//    random graphs the paper's lower bounds are proved on — and the
	//    Theorem-2 lister, ceil(c log n) repetitions of (A2; A3). The spec
	//    is plain JSON-serializable data; POSTing it to cmd/triserve runs
	//    the identical job.
	spec := congest.JobSpec{
		Graph: congest.GraphSpec{Generator: "gnp", N: 64, P: 0.5, Seed: 2017},
		Algo:  "list",
		Seed:  7,
	}

	// 2. Run it. Verification against the centralized oracle is on by
	//    default; the context could cancel the run at any round boundary.
	obs := &progress{}
	res, err := congest.RunObserved(context.Background(), spec, obs)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("network: n=%d m=%d d_max=%d\n", res.Graph.N, res.Graph.M, res.Graph.MaxDegree)
	fmt.Printf("oracle:  %d triangles in T(G)\n", *res.Verify.OracleTriangles)
	fmt.Printf("CONGEST: %d rounds, %d bits moved, %d distinct triangles listed\n",
		res.Meta.ScheduledRounds, res.Metrics.TotalBits, res.TriangleCount)
	fmt.Printf("stream:  observed %d segments, %d rounds, %d words live\n",
		obs.segments, obs.rounds, obs.words)

	// 3. Verification: one-sided error (every output is a real triangle)
	//    and completeness (probability >= 1 - 1/n).
	if !res.Verify.OK {
		log.Fatalf("listing incomplete: %s", res.Verify.Detail)
	}
	fmt.Println("verify:  complete and one-sided — T = T(G)")

	// 4. The whole point of Theorem 2: compare with the trivial
	//    Theta(d_max)-round two-hop baseline as n grows (see
	//    examples/socialnet and cmd/experiments for the full sweeps).
	fmt.Printf("\nfor scale: the trivial baseline needs ~d_max/B = %d rounds of\n"+
		"full neighborhood exchange per node; the paper's algorithm spends its\n"+
		"rounds on hashed edge samples and Delta(X) certificates instead.\n",
		res.Graph.MaxDegree/2)
}
