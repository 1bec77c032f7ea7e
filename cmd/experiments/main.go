// Command experiments regenerates the paper's evaluation: every row of
// Table 1 of Izumi & Le Gall (PODC'17) plus the lower-bound measurements,
// the design ablations, and the dynamic-graph churn family (sliding
// window, random flips, preferential growth), as scaling tables with
// fitted exponents. It is a thin client of the public repro/congest API.
//
// Examples:
//
//	experiments                 # run everything at default sizes
//	experiments -quick          # small smoke sizes
//	experiments -exp e5         # only the Theorem-2 lister row
//	experiments -exp churn-window,churn-flip,churn-growth
//	experiments -sizes 32,64,128 -csv out/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"

	"repro/congest"
)

func main() {
	// Ctrl-C cancels the sweep between cells instead of killing mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "", "comma-separated experiment ids (empty = all); see -list")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		sizes  = fs.String("sizes", "", "comma-separated network sizes (empty = defaults)")
		seed   = fs.Int64("seed", 1, "random seed")
		b      = fs.Int("b", 2, "bandwidth in words per edge per round")
		quick  = fs.Bool("quick", false, "smoke sizes")
		csvDir = fs.String("csv", "", "also write one CSV per experiment into this directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range congest.Experiments() {
			fmt.Printf("%-8s %s [%s]\n", e.ID, e.Title, e.PaperBound)
		}
		return nil
	}
	spec := congest.SweepSpec{Seed: *seed, Bandwidth: *b, Quick: *quick}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("bad size %q: %w", s, err)
			}
			spec.Sizes = append(spec.Sizes, v)
		}
	}
	var ids []string
	if *exp == "" {
		for _, e := range congest.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	for _, id := range ids {
		tbl, err := congest.RunExperiment(ctx, id, spec)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, id+".csv"))
			if err != nil {
				return err
			}
			werr := tbl.WriteCSV(f)
			cerr := f.Close()
			if werr != nil {
				return werr
			}
			if cerr != nil {
				return cerr
			}
		}
	}
	return nil
}
