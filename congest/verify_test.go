package congest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// listReport is the list-based reference for a verification report: T(G)
// listed by graph.ListTriangles, then every listed triangle probed in the
// union in order, its length compared with a finding, or the listed
// triangles of vertex 0's component compared with a distributed count.
func listReport(mode string, g *graph.Graph, res core.Result, count int64) *VerifyReport {
	truth := graph.ListTriangles(g)
	n := len(truth)
	rep := &VerifyReport{Mode: mode, OK: true, OracleTriangles: &n}
	var err error
	switch mode {
	case VerifyListing:
		if err = core.VerifyOneSided(g, res); err == nil {
			for _, t := range truth {
				if !res.Union.Has(t) {
					err = fmt.Errorf("triangle %v of G missing from output (got %d of %d)", t, len(res.Union), n)
					break
				}
			}
		}
	case VerifyFinding:
		if err = core.VerifyOneSided(g, res); err == nil && n > 0 && len(res.Union) == 0 {
			err = errors.New("G has triangles but none was found")
		}
	case "count":
		// Grow the set of vertices 0 reaches to its fixpoint, then count
		// the listed triangles that lie in it.
		reach := map[int]bool{0: true}
		for grew := true; grew; {
			grew = false
			for _, e := range g.Edges() {
				if reach[e.U] != reach[e.V] {
					reach[e.U], reach[e.V], grew = true, true, true
				}
			}
		}
		root := 0
		for _, t := range truth {
			if reach[t.A] {
				root++
			}
		}
		if int64(root) != count {
			err = fmt.Errorf("distributed count %d, oracle %d in root 0's component", count, root)
		}
	}
	if err != nil {
		rep.OK = false
		rep.Detail = err.Error()
	}
	return rep
}

// engineResult runs spec's algorithm on s's engines and returns the raw
// core.Result with the graph's cache entry.
func engineResult(t *testing.T, s *Session, spec JobSpec) (cachedGraph, core.Result) {
	t.Helper()
	c, err := s.graph(spec.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := buildAlgo(spec, c.g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.engines.Run(context.Background(), c.g, ab.segs, s.engineConfig(spec, c.g), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// corrupted returns res with every output of its first output triangle
// replaced by a triple of g that is no triangle, and its union rebuilt
// from the outputs. The union of a complete run keeps |T(G)| members, so
// only the one-sided check can fail the listing.
func corrupted(t *testing.T, g *graph.Graph, res core.Result) core.Result {
	t.Helper()
	var bad graph.Triangle
	found := false
	for a := 0; a < g.N() && !found; a++ {
		for b := a + 1; b < g.N() && !found; b++ {
			for c := b + 1; c < g.N() && !found; c++ {
				if !g.HasEdge(a, b) || !g.HasEdge(a, c) || !g.HasEdge(b, c) {
					bad, found = graph.NewTriangle(a, b, c), true
				}
			}
		}
	}
	var victim graph.Triangle
	for _, ts := range res.Outputs {
		if len(ts) > 0 {
			victim = ts[0]
			break
		}
	}
	if !found || victim == (graph.Triangle{}) {
		t.Fatal("no output to corrupt")
	}
	out := res
	out.Outputs = make([][]graph.Triangle, len(res.Outputs))
	out.Union = graph.TriangleSet{}
	for v, ts := range res.Outputs {
		out.Outputs[v] = slices.Clone(ts)
		for i, tr := range out.Outputs[v] {
			if tr == victim {
				out.Outputs[v][i] = bad
			}
			out.Union.Add(out.Outputs[v][i])
		}
	}
	return out
}

// TestCountVerificationMatchesList: listing, finding and count
// verification read |T(G)| from the graph's cache entry and list T(G) only
// when a listing misses a triangle, and each report — mode, verdict,
// detail and oracleTriangles — equals the list-based reference's. It
// checks a complete two-hop run, one left incomplete by a loss and crash
// plan and one with an output corrupted into a non-triangle, each on one
// shard and on four.
func TestCountVerificationMatchesList(t *testing.T) {
	faulty := gnpSpec("twohop")
	faulty.Faults = &FaultSpec{Seed: 5, Crashes: []FaultCrash{{Node: 2, Round: 1}}, Loss: 0.3}
	for _, shards := range []int{1, 4} {
		s := pinnedSession(shards)
		c, complete := engineResult(t, s, gnpSpec("twohop"))
		_, incomplete := engineResult(t, s, faulty)
		results := map[string]core.Result{
			"complete":   complete,
			"incomplete": incomplete,
			"corrupted":  corrupted(t, c.g, complete),
		}
		if len(results["corrupted"].Union) != len(complete.Union) {
			t.Fatal("corrupting an output changed the union's size")
		}
		listing := map[string]*VerifyReport{}
		for name, res := range results {
			for _, mode := range []string{VerifyListing, VerifyFinding, "count"} {
				var got *VerifyReport
				if mode == "count" {
					got = countReport(s.triangles(c), s.rootTriangles(c), int64(len(res.Union)))
				} else {
					got = s.verify(mode, c, res)
				}
				if want := listReport(mode, c.g, res, int64(len(res.Union))); !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d %s %s: report %+v (oracle %d), list-based %+v (oracle %d)",
						shards, name, mode, got, *got.OracleTriangles, want, *want.OracleTriangles)
				}
				if mode == VerifyListing {
					listing[name] = got
				}
			}
		}
		// Each Result takes its own branch of the listing check.
		if !listing["complete"].OK || listing["incomplete"].OK || listing["corrupted"].OK {
			t.Fatalf("shards=%d: listing verdicts %v/%v/%v, want OK/missing/non-triangle", shards,
				listing["complete"].OK, listing["incomplete"].OK, listing["corrupted"].OK)
		}
		if passes := s.oraclePasses.Load(); passes != 1 {
			t.Errorf("shards=%d: %d oracle passes over one cached graph, want 1", shards, passes)
		}
	}

	// A count job's own report matches the reference too.
	res, err := NewSession().Run(context.Background(), gnpSpec("count"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(gnpSpec("count").Graph)
	if err != nil {
		t.Fatal(err)
	}
	if want := listReport("count", g, core.Result{}, res.Count); !reflect.DeepEqual(res.Verify, want) {
		t.Errorf("count job: report %+v, list-based %+v", res.Verify, want)
	}
}

// TestCountVerifiesRootComponent: a count job counts the triangles of
// vertex 0's connected component, and its verification checks that count
// against the triangles of the component, while OracleTriangles still
// reports |T(G)|. Two disjoint triangles count 1 of 2, and a root
// component with none counts 0 while the other component holds one. Each
// report equals the list-based reference's, and the component count is one
// more oracle pass per cached graph: a second job adds none.
func TestCountVerifiesRootComponent(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edges  [][2]int
		count  int64
		oracle int
	}{
		{"two triangles", [][2]int{{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}}, 1, 2},
		{"triangle elsewhere", [][2]int{{0, 1}, {3, 4}, {3, 5}, {4, 5}}, 0, 1},
	} {
		s := NewSession()
		spec := JobSpec{Graph: GraphSpec{N: 6, Edges: tc.edges}, Algo: "count"}
		g, err := s.Graph(spec.Graph)
		if err != nil {
			t.Fatal(err)
		}
		for job := 0; job < 2; job++ {
			res, err := s.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != tc.count || res.Verify == nil || !res.Verify.OK || *res.Verify.OracleTriangles != tc.oracle {
				t.Fatalf("%s job %d: count %d, verification %+v; want count %d verified OK with %d oracle triangles",
					tc.name, job, res.Count, res.Verify, tc.count, tc.oracle)
			}
			if want := listReport("count", g, core.Result{}, res.Count); !reflect.DeepEqual(res.Verify, want) {
				t.Errorf("%s: report %+v, list-based %+v", tc.name, res.Verify, want)
			}
		}
		if passes := s.oraclePasses.Load(); passes != 2 {
			t.Errorf("%s: %d oracle passes, want 2: |T(G)| and the other component's triangles", tc.name, passes)
		}
	}
}

// oracleSpec is a small graph with triangles and its |T(G)|.
func oracleSpec(t *testing.T, seed int64) (GraphSpec, int) {
	t.Helper()
	gs := GraphSpec{Generator: "gnp", N: 40, P: 0.3, Seed: seed}
	g, err := LoadGraph(gs)
	if err != nil {
		t.Fatal(err)
	}
	return gs, len(graph.ListTriangles(g))
}

// runVerified runs algo on gs and checks that its verification reports
// want oracle triangles.
func runVerified(t *testing.T, s *Session, gs GraphSpec, algo string, want int) {
	t.Helper()
	res, err := s.Run(context.Background(), JobSpec{Graph: gs, Algo: algo, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil || res.Verify.OracleTriangles == nil || *res.Verify.OracleTriangles != want {
		t.Fatalf("%s: verification %+v, want %d oracle triangles", algo, res.Verify, want)
	}
}

// evict materializes maxCachedGraphs other graphs in s, evicting every
// graph it cached before.
func evict(t *testing.T, s *Session) {
	t.Helper()
	for i := 0; i < maxCachedGraphs; i++ {
		if _, err := s.Graph(GraphSpec{Generator: "gnp", N: 10, P: 0.3, Seed: int64(1000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOraclePassOncePerCachedGraph: twohop, find and count jobs verified
// on one graph share one oracle pass, and a one-sided check needs none.
// Once 32 other graphs evict the graph, its count goes with it, and the
// next job on it counts again.
func TestOraclePassOncePerCachedGraph(t *testing.T) {
	s := NewSession()
	gs, want := oracleSpec(t, 21)
	for _, algo := range []string{"twohop", "find", "count", "list"} {
		runVerified(t, s, gs, algo, want)
	}
	if _, err := s.Run(context.Background(), JobSpec{Graph: gs, Algo: "a1", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if passes := s.oraclePasses.Load(); passes != 1 {
		t.Fatalf("%d oracle passes over one cached graph, want 1", passes)
	}
	evict(t, s)
	if _, ok := s.cachedGraph(gs.key()); ok {
		t.Fatal("graph still cached after 32 others")
	}
	runVerified(t, s, gs, "twohop", want)
	if passes := s.oraclePasses.Load(); passes != 2 {
		t.Fatalf("%d oracle passes after the graph was evicted and rebuilt, want 2", passes)
	}
}

// TestOraclePassConcurrentFirstJobs: jobs that arrive together on a fresh
// graph share its one oracle pass and all report the same count.
func TestOraclePassConcurrentFirstJobs(t *testing.T) {
	s := NewSession()
	gs, want := oracleSpec(t, 22)
	algos := []string{"twohop", "find", "count", "list", "twohop", "find", "count", "list"}
	var wg sync.WaitGroup
	reports := make([]*VerifyReport, len(algos))
	errs := make([]error, len(algos))
	for i, algo := range algos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Run(context.Background(), JobSpec{Graph: gs, Algo: algo, Seed: int64(i)})
			reports[i], errs[i] = res.Verify, err
		}()
	}
	wg.Wait()
	for i, rep := range reports {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if rep == nil || rep.OracleTriangles == nil || *rep.OracleTriangles != want {
			t.Fatalf("%s job %d: verification %+v, want %d oracle triangles", algos[i], i, rep, want)
		}
	}
	if passes := s.oraclePasses.Load(); passes != 1 {
		t.Fatalf("%d oracle passes for concurrent first jobs, want 1", passes)
	}
}

// pausingObs holds a job at its first round until released.
type pausingObs struct {
	once     sync.Once
	paused   chan struct{}
	released chan struct{}
}

func (o *pausingObs) OnSegment(SegmentInfo)    {}
func (o *pausingObs) OnTriangle(int, Triangle) {}
func (o *pausingObs) OnRound(int, RoundDelta) {
	o.once.Do(func() {
		close(o.paused)
		<-o.released
	})
}

// TestOraclePassEvictedMidJob: a job whose graph is evicted while it runs
// still verifies against the graph's count, which is not cached: the next
// job on the graph builds and counts it again.
func TestOraclePassEvictedMidJob(t *testing.T) {
	s := NewSession()
	gs, want := oracleSpec(t, 23)
	obs := &pausingObs{paused: make(chan struct{}), released: make(chan struct{})}
	var res Result
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err = s.RunObserved(context.Background(), JobSpec{Graph: gs, Algo: "twohop", Seed: 1}, obs)
	}()
	<-obs.paused
	evict(t, s)
	close(obs.released)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verify.OK || *res.Verify.OracleTriangles != want {
		t.Fatalf("verification %+v, want OK with %d oracle triangles", res.Verify, want)
	}
	if _, ok := s.cachedGraph(gs.key()); ok {
		t.Fatal("a graph evicted mid-job is cached again")
	}
	if passes := s.oraclePasses.Load(); passes != 1 {
		t.Fatalf("%d oracle passes, want 1", passes)
	}
	runVerified(t, s, gs, "twohop", want)
	if passes := s.oraclePasses.Load(); passes != 2 {
		t.Fatalf("%d oracle passes after rebuilding the graph, want 2", passes)
	}
}

// TestTriangleCountFixedSize: the count a cached graph carries holds
// nothing but numbers — no pointer, slice, map or string — so it costs the
// same few bytes whatever the graph, and the 32-graph bound of the cache
// bounds it too.
func TestTriangleCountFixedSize(t *testing.T) {
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type)
			}
		case reflect.Array:
			walk(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("triangleCount holds a %s", typ)
		}
	}
	walk(reflect.TypeOf(triangleCount{}))
}
