// Command perfbench is the repository's benchmark. It starts the triserve
// binary, drives it with a closed-loop HTTP client over a job mix generated
// from a seed, checks every reply, and prints the end-to-end metrics. With
// --trace 1 it runs the same job lists in-process instead, timing calls
// into each layer's public functions, and prints the per-layer metrics.
//
// run.sh builds triserve and this harness from the source tree and runs it:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A failed output check prints correct=false
// and exits 1; a broken environment exits 2 without a result.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one workload's run: the harness must exit within 180s.
const runBudget = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric under its declared unit.
func (r *report) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// finish copies the operation counts in and prints the first failure.
func (r *report) finish(ctx context.Context, t tally) {
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.correct() && ctx.Err() == nil
	if t.firstErr != "" {
		fmt.Printf("first failure (%d of %d failed): %s\n", t.failed, t.attempted, t.firstErr)
	}
	if ctx.Err() != nil {
		fmt.Printf("run overran its %s budget\n", runBudget)
	}
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fl.String("workload", "", "paper, serve, large, or all")
		seed    = fl.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fl.Int("seconds", 10, "run length on the reference box (2 CPUs); fixes the job count")
		trace   = fl.Int("trace", 0, "0 = end-to-end metrics over triserve, 1 = traced in-process per-layer metrics")
		bin     = fl.String("triserve", "", "triserve binary (run.sh builds it)")
		work    = fl.String("work", "", "directory for fixtures and trace files (run.sh sets it)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *name == "" || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload, --seconds >= 1, --trace 0|1, -triserve and -work")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	total := report{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		rep, err := runWorkload(n, *seed, *seconds, *trace == 1, *bin, *work)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			return 2
		}
		if len(names) == 1 {
			total = rep
			break
		}
		fmt.Printf("%s: ", n)
		printJSON(rep)
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for k, m := range rep.Metrics {
			total.Metrics[n+"/"+k] = m
		}
	}
	printJSON(total)
	if !total.Correct {
		return 1
	}
	return 0
}

func printJSON(r report) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a report holds only numbers and strings
	}
	fmt.Println(string(b))
}

// runWorkload prepares one workload's fixtures and runs it in the chosen
// mode, printing provenance and every metric before the result line.
func runWorkload(name string, seed int64, seconds int, traced bool, bin, work string) (report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	dir, err := os.MkdirTemp(work, "run-"+name+"-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	w, err := newWorkload(name, seed, seconds, dir)
	if err != nil {
		return report{}, err
	}
	prov := newProvenance(w, seed)
	var rep report
	if traced {
		rep, err = runTraced(ctx, w, dir, filepath.Join(work, "traces"), &prov)
	} else {
		rep, err = runServed(ctx, w, bin, dir, &prov)
	}
	if err != nil {
		return report{}, err
	}
	b, _ := json.Marshal(prov) // provenance holds only strings and numbers
	fmt.Printf("provenance %s\n", b)
	for _, m := range metricTable {
		if v, ok := rep.Metrics[m.name]; ok {
			fmt.Printf("%-28s %14.6g %-6s  moves %s\n", m.name, v.Value, v.Unit, m.moves)
		}
	}
	return rep, nil
}

// provenance is printed with every run, so drift between sessions or
// machines shows next to the numbers.
type provenance struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	NumCPU      int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Go          string   `json:"go"`
	Commit      string   `json:"commit"`
	Source      string   `json:"source_sha256"`
	JournalFS   string   `json:"journal_fs"`
	Flags       []string `json:"triserve_flags,omitempty"`
	Clients     int      `json:"clients"`
	Passes      int      `json:"passes"`
	JobsPerPass int      `json:"jobs_per_pass"`
	Setups      int      `json:"setups"`
}

func newProvenance(w *workload, seed int64) provenance {
	return provenance{
		Workload:    w.name,
		Seed:        seed,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Go:          runtime.Version(),
		Commit:      gitCommit(),
		Source:      sourceHash("."),
		Clients:     w.clients,
		Passes:      w.passes,
		JobsPerPass: w.perPass,
		Setups:      w.setups,
	}
}

// gitCommit is HEAD when the tree is a git checkout, "" otherwise.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceHash fingerprints the Go sources under root, skipping dot
// directories (build outputs live there), so runs of a tree that is not a
// git checkout still name the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir, where the journal lives.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
