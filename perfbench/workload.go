package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/congest"
	"repro/internal/graph"
)

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"paper", "serve", "large"}

// wireSpec is a job spec in today's strict JobSpec wire form. Request bodies
// are built from these literal field names rather than from congest.JobSpec,
// so a change that drops or renames a field is refused by triserve's strict
// decoder and fails the output gate instead of silently changing the work.
type wireSpec struct {
	Graph    wireGraph `json:"graph"`
	Algo     string    `json:"algo"`
	Seed     int64     `json:"seed"`
	Parallel bool      `json:"parallel,omitempty"`
	Shards   int       `json:"shards,omitempty"`
}

type wireGraph struct {
	File      string  `json:"file,omitempty"`
	Generator string  `json:"generator,omitempty"`
	N         int     `json:"n,omitempty"`
	P         float64 `json:"p,omitempty"`
	K         int     `json:"k,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
}

// job is one distinct spec of a workload.
type job struct {
	algo string
	body []byte // the exact request body
}

// workload is one generated traffic mix with its fixtures.
type workload struct {
	name string
	jobs []job // distinct specs: the warm-up pass and the gate's references
	// order is the fixed request sequence, job indices: passes passes of
	// perPass requests each. The clients take its entries in turn.
	order   []int
	passes  int
	perPass int
	// clients is the closed loop's connection count. It is fixed per
	// workload, not read from the machine, so a run does the same work
	// everywhere.
	clients int
	// setups is how many times a run starts triserve and warms it up;
	// setup_s is their median.
	setups int
	flags  []string // triserve flags besides -addr and -journal
	// seedJournal is copied to a fresh journal before every server start;
	// "" starts from an empty journal.
	seedJournal string
	csrbin      string // the large graph fixture ("" for other workloads)
}

// Workload shape. passSeconds is how long one pass takes on the reference
// box (2 CPUs), which turns --seconds into a fixed pass count: the same
// arguments always mean the same work, and a run is never cut mid-mix.
const (
	paperPassSeconds = 3.3
	servePassSeconds = 0.5
	largePassSeconds = 13

	// serveRepeats is how often each serve spec appears per client and
	// pass, so a pass of tiny jobs lasts about as long as the others'.
	serveRepeats = 10
	// seedJournalJobs is how many earlier serve jobs the serve journal holds
	// when triserve starts, so serve's set-up includes journal replay.
	seedJournalJobs = 3000

	largeN = 100000
	largeP = 0.00008 // CI's large-graph generator parameters (mean degree 8)
)

var serveAlgos = []string{"a1", "tester", "twohop", "count", "dolev"}

// newWorkload generates a workload and its fixtures in dir from the seed.
// Fixture generation is preparation, never part of a timed set-up.
func newWorkload(name string, seed int64, seconds int, dir string) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	// Two clients, one per CPU of the reference box, keep both triserve
	// workers busy.
	w := &workload{name: name, clients: 2, setups: 3, flags: []string{"-drain-timeout", "10s"}}
	var specs []wireSpec
	var passSeconds float64
	repeats := 1
	switch name {
	case "paper":
		specs = paperSpecs(rng)
		if err := screen(specs, rng); err != nil {
			return nil, err
		}
		passSeconds = paperPassSeconds
	case "serve":
		var graphs []wireGraph
		specs, graphs = serveSpecs(rng)
		w.seedJournal = filepath.Join(dir, "seed.journal")
		if err := writeSeedJournal(w.seedJournal, graphs, rng); err != nil {
			return nil, fmt.Errorf("seed the serve journal: %w", err)
		}
		passSeconds, repeats = servePassSeconds, serveRepeats
	case "large":
		w.csrbin = filepath.Join(dir, "large.csrbin")
		if err := writeLargeGraph(w.csrbin, rng.Int63n(1<<31)); err != nil {
			return nil, fmt.Errorf("write the large graph: %w", err)
		}
		specs = largeSpecs(rng, w.csrbin)
		// The default -max-n (16384) refuses a 10^5-node graph.
		w.flags = append(w.flags, "-max-n", "0")
		// One client: large jobs hold gigabytes and a sharded one already
		// uses both CPUs, so two at once measured which jobs happened to
		// overlap (jobs_per_s and peak RSS spread 16-17% across seeds)
		// rather than the program.
		w.clients = 1
		// A large set-up takes about 14 s; two keep the run short.
		w.setups = 2
		passSeconds = largePassSeconds
	default:
		return nil, fmt.Errorf("unknown workload %q (paper, serve, large or all)", name)
	}
	for _, s := range specs {
		body, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		w.jobs = append(w.jobs, job{algo: s.Algo, body: body})
	}
	w.passes = max(1, int(math.Round(float64(seconds)/passSeconds)))
	w.perPass = w.clients * repeats * len(specs)
	for i := 0; i < w.passes*w.clients*repeats; i++ {
		w.order = append(w.order, rng.Perm(len(specs))...)
	}
	return w, nil
}

// walk runs a closed loop over order: clients goroutines each take the
// next entry as soon as their previous request has returned, until order
// is used up. A shared sequence rather than per-client lists means no
// client idles while another finishes, except on the last request.
// fn(c, i, ji) runs on client c's goroutine for order[i] = ji.
func walk(order []int, clients int, fn func(c, i, ji int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				fn(c, i, order[i])
			}
		}()
	}
	wg.Wait()
}

// freshJournal puts a new journal at path: a copy of the seeded journal, or
// nothing (triserve then creates an empty one).
func (w *workload) freshJournal(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if w.seedJournal == "" {
		return nil
	}
	return copyFile(w.seedJournal, path)
}

// paperSpecs is the paper's own traffic on sparse graphs (mean degree about
// 8), gnp and Barabási–Albert alternating, n from 64 to 256: the Theorem-2
// lister on 16 graphs and the Theorem-1 finder on 8. A find costs a fifth
// of a list on the same graph, so with as many of each the median request
// would fall in the gap between the two and jump with every small shift.
// Two lists to a find, on finely stepped sizes, put it inside a dense run
// of list latencies instead.
func paperSpecs(rng *rand.Rand) []wireSpec {
	var specs []wireSpec
	for _, mix := range []struct {
		algo  string
		count int
	}{{"list", 16}, {"find", 8}} {
		for i := 0; i < mix.count; i++ {
			n := 64 + 192*i/(mix.count-1)
			g := wireGraph{Generator: "gnp", N: n, P: 8 / float64(n), Seed: rng.Int63n(1 << 31)}
			if i%2 == 1 {
				g = wireGraph{Generator: "ba", N: n, K: 4, Seed: g.Seed}
			}
			specs = append(specs, wireSpec{Graph: g, Algo: mix.algo, Seed: rng.Int63n(1 << 31)})
		}
	}
	return specs
}

// screen redraws the engine seed of any spec whose run fails its own
// verification. The finder and lister are Monte Carlo algorithms, and a
// workload must be one on which no operation fails.
func screen(specs []wireSpec, rng *rand.Rand) error {
	sess := congest.NewSession(congest.WithOracleWorkers(1))
	for i := range specs {
		for try := 0; ; try++ {
			body, err := json.Marshal(specs[i])
			if err != nil {
				return err
			}
			spec, err := congest.ParseJobSpec(body)
			if err != nil {
				return err
			}
			res, err := sess.Run(context.Background(), spec)
			if err != nil {
				return err
			}
			if res.Verify != nil && res.Verify.OK {
				break
			}
			if try == 10 {
				return fmt.Errorf("paper spec %d misses on 10 engine seeds", i)
			}
			specs[i].Seed = rng.Int63n(1 << 31)
		}
	}
	return nil
}

// serveSpecs is tiny-job traffic: five cheap algorithms on four gnp(48, 0.2)
// graphs. It also returns the graphs, which the seeded journal reuses.
func serveSpecs(rng *rand.Rand) ([]wireSpec, []wireGraph) {
	var specs []wireSpec
	var graphs []wireGraph
	for i := 0; i < 4; i++ {
		g := wireGraph{Generator: "gnp", N: 48, P: 0.2, Seed: rng.Int63n(1 << 31)}
		graphs = append(graphs, g)
		for _, algo := range serveAlgos {
			specs = append(specs, wireSpec{Graph: g, Algo: algo, Seed: rng.Int63n(1 << 31)})
		}
	}
	return specs, graphs
}

// largeSpecs runs a1, twohop and tester on the 10^5-node graph, each
// unsharded and with four parallel shards.
func largeSpecs(rng *rand.Rand, path string) []wireSpec {
	var specs []wireSpec
	for _, algo := range []string{"a1", "twohop", "tester"} {
		seed := rng.Int63n(1 << 31)
		g := wireGraph{File: path}
		specs = append(specs,
			wireSpec{Graph: g, Algo: algo, Seed: seed},
			wireSpec{Graph: g, Algo: algo, Seed: seed, Shards: 4, Parallel: true})
	}
	return specs
}

// writeLargeGraph writes gnp(10^5, 0.00008) as a .csrbin file.
func writeLargeGraph(path string, seed int64) error {
	g, err := congest.LoadGraph(congest.GraphSpec{Generator: "gnp", N: largeN, P: largeP, Seed: seed})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteCSRBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSeedJournal fills a journal with seedJournalJobs finished serve jobs
// by running them through an in-process Service, so the journal is written
// by the repository's own code in its current format.
func writeSeedJournal(path string, graphs []wireGraph, rng *rand.Rand) error {
	specs := make([]congest.JobSpec, seedJournalJobs)
	for i := range specs {
		ws := wireSpec{Graph: graphs[i%len(graphs)], Algo: serveAlgos[rng.Intn(len(serveAlgos))], Seed: rng.Int63n(1 << 31)}
		body, err := json.Marshal(ws)
		if err != nil {
			return err
		}
		if specs[i], err = congest.ParseJobSpec(body); err != nil {
			return err
		}
	}
	svc, err := congest.OpenService(congest.WithJournal(path))
	if err != nil {
		return err
	}
	// Two submitters, so jobs overlap as they do under the serve loop; walk
	// hands out the indices, and order's values go unused.
	errs := make([]error, len(specs))
	walk(make([]int, len(specs)), 2, func(_, i, _ int) {
		j, err := svc.Submit(specs[i])
		if err == nil {
			<-j.Done()
			_, err, _ = j.Result()
		}
		errs[i] = err
	})
	svc.Close()
	return errors.Join(errs...)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
