package congest

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// serviceSpecs is a mixed workload: several algorithms over a shared graph
// (exercising the shared engine pool) plus distinct graphs and a churn
// job.
func serviceSpecs() []JobSpec {
	shared := GraphSpec{Generator: "gnp", N: 24, P: 0.5, Seed: 3}
	specs := []JobSpec{
		{Graph: shared, Algo: "list", Seed: 1},
		{Graph: shared, Algo: "find", Seed: 2},
		{Graph: shared, Algo: "twohop", Seed: 3},
		{Graph: shared, Algo: "count", Seed: 4},
		{Graph: shared, Algo: "tester", Seed: 5, Probes: 8},
		{Graph: GraphSpec{Generator: "ba", N: 32, K: 3, Seed: 9}, Algo: "list", Seed: 6},
		{Graph: GraphSpec{Generator: "gnm", N: 32, K: 64, Seed: 4}, Algo: "churn", Seed: 7,
			Churn: &ChurnSpec{Workload: "flip", BatchSize: 12, Epochs: 3}},
		{Graph: shared, Algo: "dolev", Seed: 8},
		{Graph: shared, Algo: "list", Seed: 1}, // duplicate spec: must be bit-identical
	}
	// Repeat the mix with fresh seeds so the pool sees real contention.
	for s := int64(10); s < 16; s++ {
		specs = append(specs, JobSpec{Graph: shared, Algo: "find", Seed: s})
	}
	return specs
}

// TestServiceConcurrentParity is the multiplexing contract: results of
// concurrent service jobs are bit-identical to sequential Session runs of
// the same specs. Run under -race in CI.
func TestServiceConcurrentParity(t *testing.T) {
	specs := serviceSpecs()
	// Sequential ground truth, its oracle pinned to one worker while the
	// service counts at all CPUs: verification output matches at any width.
	seq := NewSession(WithOracleWorkers(1))
	want := make([]Result, len(specs))
	for i, spec := range specs {
		var err error
		if want[i], err = seq.Run(context.Background(), spec); err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
	}
	svc := NewService(WithWorkers(4))
	defer svc.Close()
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, j.Spec().Algo, err)
		}
		if j.Status() != JobDone {
			t.Fatalf("job %d status %s", i, j.Status())
		}
		if !reflect.DeepEqual(res, want[i]) {
			t.Errorf("job %d (%s seed %d): concurrent result differs from sequential",
				i, j.Spec().Algo, j.Spec().Seed)
		}
	}
	// The first and last list jobs share a spec: identical results.
	a, _, _ := jobs[0].Result()
	b, _, _ := jobs[8].Result()
	if !reflect.DeepEqual(a, b) {
		t.Error("identical specs produced different results")
	}
}

// TestServiceJobLifecycle covers ids, lookup, ordering and cancellation.
func TestServiceJobLifecycle(t *testing.T) {
	svc := NewService(WithWorkers(1))
	defer svc.Close()
	long := JobSpec{Graph: GraphSpec{Generator: "gnp", N: 64, P: 0.5, Seed: 1}, Algo: "list", Seed: 1}
	j1, err := svc.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID() == j2.ID() {
		t.Fatal("duplicate job ids")
	}
	if got, ok := svc.Job(j1.ID()); !ok || got != j1 {
		t.Fatal("job lookup failed")
	}
	if all := svc.Jobs(); len(all) != 2 || all[0] != j1 || all[1] != j2 {
		t.Fatal("job listing not in submission order")
	}
	j2.Cancel()
	res2, err2 := j2.Wait(context.Background())
	if _, err := j1.Wait(context.Background()); err != nil {
		t.Fatalf("j1: %v", err)
	}
	if err2 != nil && j2.Status() != JobCancelled {
		t.Fatalf("cancelled job status %s err %v", j2.Status(), err2)
	}
	if err2 != nil && !res2.Meta.Cancelled && res2.Meta.ExecutedRounds != 0 {
		t.Fatalf("cancelled job result not marked: %+v", res2.Meta)
	}
	// Submit on a closed service fails; Wait honors its own context.
	svc.Close()
	if _, err := svc.Submit(long); err == nil {
		t.Fatal("closed service accepted a job")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	done := &Job{done: make(chan struct{})}
	if _, err := done.Wait(ctx); err == nil {
		t.Fatal("Wait ignored its context")
	}
}

// TestServiceJobHistoryEviction: finished jobs beyond the history budget
// are evicted oldest-first; unfinished ones never are.
func TestServiceJobHistoryEviction(t *testing.T) {
	svc := NewService(WithJobHistory(3))
	defer svc.Close()
	spec := JobSpec{Graph: GraphSpec{Generator: "gnp", N: 12, P: 0.5, Seed: 1}, Algo: "find", Verify: VerifyNone}
	var last *Job
	for i := int64(0); i < 6; i++ {
		s := spec
		s.Seed = i
		j, err := svc.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	// One more submission triggers eviction of everything over budget.
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(svc.Jobs()); got > 3+1 {
		t.Fatalf("history holds %d jobs, budget 3", got)
	}
	if _, ok := svc.Job("job-1"); ok {
		t.Fatal("oldest job not evicted")
	}
	if _, ok := svc.Job(last.ID()); !ok {
		t.Fatal("recent job evicted")
	}
}

// TestServiceRejectsInvalidSpec: validation happens at submission, not
// execution.
func TestServiceRejectsInvalidSpec(t *testing.T) {
	svc := NewService()
	defer svc.Close()
	if _, err := svc.Submit(JobSpec{Algo: "nope"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestServiceMaxVertices: admission control applies to service jobs.
func TestServiceMaxVertices(t *testing.T) {
	svc := NewService(WithMaxVertices(16))
	defer svc.Close()
	j, err := svc.Submit(JobSpec{Graph: GraphSpec{Generator: "gnp", N: 64, P: 0.5}, Algo: "list"})
	if err != nil {
		t.Fatal(err) // shape is valid; the size check happens at run time
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("oversized job ran")
	}
	if j.Status() != JobFailed {
		t.Fatalf("status %s", j.Status())
	}
	small, err := svc.Submit(JobSpec{Graph: GraphSpec{Generator: "gnp", N: 12, P: 0.5}, Algo: "list"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServiceObserved: streaming works through the service, on the job's
// own goroutine, with deterministic content.
func TestServiceObserved(t *testing.T) {
	svc := NewService(WithWorkers(2))
	defer svc.Close()
	spec := gnpSpec("list")
	direct := &recorder{}
	if _, err := RunObserved(context.Background(), spec, direct); err != nil {
		t.Fatal(err)
	}
	through := &recorder{}
	j, err := svc.SubmitObserved(spec, through)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(through.rounds) != len(direct.rounds) || len(through.triangles) != len(direct.triangles) {
		t.Fatalf("service stream (%d rounds, %d triangles) differs from direct (%d, %d)",
			len(through.rounds), len(through.triangles), len(direct.rounds), len(direct.triangles))
	}
}

// TestSessionGraphCache: one GraphSpec, one graph instance.
func TestSessionGraphCache(t *testing.T) {
	s := NewSession()
	gs := GraphSpec{Generator: "gnp", N: 20, P: 0.5, Seed: 1}
	g1, err := s.Graph(gs)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Graph(gs)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("same spec built two graphs")
	}
	other, err := s.Graph(GraphSpec{Generator: "gnp", N: 20, P: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if other == g1 {
		t.Fatal("different specs shared a graph")
	}
}

func ExampleRun() {
	res, err := Run(context.Background(), JobSpec{
		Graph: GraphSpec{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}},
		Algo:  "list",
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Found, res.Triangles, res.Verify.OK)
	// Output: true [[0 1 2]] true
}
