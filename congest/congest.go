// Package congest is the public, job-oriented facade over the repository's
// reproduction of "Triangle Finding and Listing in CONGEST Networks"
// (Izumi & Le Gall, PODC 2017).
//
// Everything the repository can do — the paper's Theorem-1 finder and
// Theorem-2 lister, their building blocks (A1, A2, A3, A(X,r)), the
// Table-1 baselines, exact counting, property testing, dynamic-graph churn
// and the experiment sweeps — is reachable through one declarative,
// JSON-serializable JobSpec:
//
//	res, err := congest.Run(ctx, congest.JobSpec{
//		Graph: congest.GraphSpec{Generator: "gnp", N: 64, P: 0.5, Seed: 1},
//		Algo:  "list",
//		Seed:  7,
//	})
//
// A job is fully determined by its spec: the same spec always produces the
// same Result, byte for byte, whether it runs alone, pooled in a Session,
// or interleaved with other jobs in a Service.
//
// # Layers
//
// Run executes one job with throwaway state. Session caches graphs and
// pooled simulator engines across jobs. Service multiplexes concurrent
// jobs over one Session under a worker budget, with per-job isolation and
// cancellation — the backend of the cmd/triserve HTTP server.
//
// # Cancellation
//
// Every run honors context cancellation at deterministic points: engine
// round boundaries (round-scheduled algorithms), epoch boundaries (churn),
// sweep-cell boundaries (experiments). A cancelled job returns the
// bit-identical prefix of the uncancelled run — outputs, metrics and
// executed-round count match the same run truncated at the same round —
// together with ctx.Err(); Meta.Cancelled marks the result partial.
//
// # Streaming
//
// RunObserved, Session.RunObserved and Service.SubmitObserved attach an
// Observer that streams segments, per-round metric deltas and triangles as
// they are produced. The Result is read from the same per-node engine
// outputs the stream delivers, so observers see exactly what the Result
// will hold.
package congest
