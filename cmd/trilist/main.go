// Command trilist runs a distributed triangle algorithm on a generated or
// loaded graph and reports the triangles found together with the CONGEST
// round/communication metrics. It is a thin client of the public
// repro/congest job API.
//
// Examples:
//
//	trilist -gen gnp -n 64 -p 0.5 -algo list
//	trilist -gen planted -n 90 -k 6 -algo find
//	trilist -gen gnp -n 48 -p 0.5 -algo dolev
//	trilist -load graph.txt -algo twohop -show 10
//	trilist -gen gnm -n 128 -k 512 -algo churn -churn window -epochs 8
//
// Checkpointing (resumable runs and time-travel replay):
//
//	trilist -gen gnp -n 256 -p 0.1 -algo list -checkpoint every=8,dir=/tmp/ck -cancel-at 20
//	trilist -gen gnp -n 256 -p 0.1 -algo list -checkpoint every=8,dir=/tmp/ck -resume
//	trilist -gen gnp -n 256 -p 0.1 -algo list -checkpoint every=8,dir=/tmp/ck -replay-round 13
//
// Fault injection (deterministic; same plan + same spec = same result):
//
//	trilist -gen gnp -n 64 -p 0.5 -algo list -faults loss=0.1,dup=0.02,seed=11
//	trilist -gen gnp -n 64 -p 0.5 -algo list -faults crash=3@5,crash=17@0,delayMax=2
//	trilist -gen gnp -n 64 -p 0.5 -algo list -faults link=0>1@4,seed=7
//	trilist -gen gnp -n 64 -p 0.5 -algo list -faults @plan.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/congest"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trilist:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("trilist", flag.ContinueOnError)
	var gf congest.GraphFlags
	gf.Register(fs)
	var (
		algo     = fs.String("algo", "list", "algorithm: "+strings.Join(congest.AlgorithmNames(), "|"))
		b        = fs.Int("b", 2, "bandwidth in words per edge per round")
		eps      = fs.Float64("eps", 0, "heaviness exponent override (0 = algorithm default)")
		show     = fs.Int("show", 5, "triangles to print (0 = none)")
		verify   = fs.Bool("verify", true, "verify output against the centralized oracle")
		explain  = fs.Bool("explain", false, "print the per-segment round budget")
		timeout  = fs.Duration("timeout", 0, "cancel the run after this duration (0 = never); a cancelled run prints its deterministic prefix")
		probes   = fs.Int("probes", 0, "property-tester probe batches (algo tester; 0 = 16)")
		churnW   = fs.String("churn", "flip", "churn workload (algo churn): window|flip|growth")
		batch    = fs.Int("batch", 0, "churn batch size (0 = n)")
		epochs   = fs.Int("epochs", 0, "churn epochs (0 = 4)")
		ckpt     = fs.String("checkpoint", "", "checkpoint config \"every=N,dir=PATH\" (dir required; every 0 = only on cancellation)")
		resume   = fs.Bool("resume", false, "resume from the latest checkpoint in -checkpoint dir (cold start when none)")
		replayR  = fs.Int("replay-round", -1, "replay this round's observation stream from the nearest checkpoint instead of running")
		cancelAt = fs.Int("cancel-at", 0, "cancel the run after this many executed rounds (0 = never); pairs with -checkpoint for kill/resume drills")
		faultsF  = fs.String("faults", "", "fault plan: \"@file.json\" (FaultSpec JSON) or compact \"seed=S,loss=R,dup=R,delayMax=K,crash=NODE@ROUND,link=FROM>TO@K\" (crash/link repeatable)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := congest.JobSpec{
		Graph:     gf.Spec(),
		Algo:      *algo,
		Bandwidth: *b,
		Seed:      gf.Seed,
		Eps:       *eps,
		Probes:    *probes,
	}
	if !*verify {
		spec.Verify = congest.VerifyNone
	}
	if *algo == "churn" {
		spec.Churn = &congest.ChurnSpec{Workload: *churnW, BatchSize: *batch, Epochs: *epochs}
	}
	cs, err := parseCheckpointFlag(*ckpt, *resume)
	if err != nil {
		return err
	}
	spec.Checkpoint = cs
	fspec, err := parseFaultsFlag(*faultsF)
	if err != nil {
		return err
	}
	spec.Faults = fspec
	if *replayR >= 0 {
		return replay(spec, *replayR)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var obs congest.Observer
	if *cancelAt > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		// The prefix contract: cancelling inside OnRound(k) stops after
		// exactly k+1 rounds, so this executes exactly cancelAt rounds.
		obs = &cancelAtObserver{at: *cancelAt, cancel: cancel}
	}
	res, err := congest.RunObserved(ctx, spec, obs)
	if err != nil && !res.Meta.Cancelled {
		return err
	}
	banner := fmt.Sprintf("graph: n=%d m=%d dmax=%d dmean=%.1f",
		res.Graph.N, res.Graph.M, res.Graph.MaxDegree, res.Graph.MeanDegree)
	if res.Verify != nil && res.Verify.OracleTriangles != nil {
		banner += fmt.Sprintf(" triangles=%d", *res.Verify.OracleTriangles)
	}
	fmt.Println(banner)
	if *explain {
		for _, sp := range res.Meta.Segments {
			fmt.Printf("plan:  %-8s %6d rounds\n", sp.Name, sp.Rounds)
		}
		fmt.Printf("plan:  total    %6d rounds\n", res.Meta.ScheduledRounds)
	}
	if res.Meta.Cancelled {
		fmt.Printf("run:   CANCELLED after %d of %d rounds (deterministic prefix follows)\n",
			res.Meta.ExecutedRounds, res.Meta.ScheduledRounds)
	}
	if ck := res.Meta.Checkpoint; ck != nil {
		fmt.Printf("ckpt:  dir=%s every=%d spec=%s\n", ck.Dir, ck.Every, ck.SpecHash)
	}
	if fm := res.Meta.Faults; fm != nil {
		fmt.Printf("fault: plan=%s crashes=%d loss=%g dup=%g delayMax=%d links=%d\n",
			fm.Hash, fm.Crashes, fm.Loss, fm.Dup, fm.DelayMax, fm.DelayLinks)
		if fc := res.Metrics.Faults; fc != nil {
			fmt.Printf("fault: crashed=%d wordsLost=%d wordsDup=%d droppedAtCrash=%d delayed=%d\n",
				fc.NodesCrashed, fc.WordsLost, fc.WordsDuplicated, fc.WordsDroppedCrash, fc.DelayedDeliveries)
		}
	}
	if res.Churn != nil {
		fmt.Printf("churn: workload=%s epochs=%d born=%d died=%d finalCount=%d\n",
			res.Churn.Workload, res.Churn.Epochs, res.Churn.Born, res.Churn.Died, res.Churn.FinalCount)
	} else {
		fmt.Printf("run:   rounds=%d activeRounds=%d words=%d bits=%d maxNodeRecvBits=%d\n",
			res.Meta.ScheduledRounds, res.Metrics.ActiveRounds,
			res.Metrics.WordsDelivered, res.Metrics.TotalBits, res.Metrics.MaxNodeRecvBits)
	}
	if *algo == "count" {
		fmt.Printf("out:   exact triangle count at root 0 = %d\n", res.Count)
	} else {
		fmt.Printf("out:   distinct triangles=%d\n", res.TriangleCount)
		if *show > 0 {
			for i, t := range res.Triangles {
				if i >= *show {
					fmt.Printf("       ... (%d more)\n", res.TriangleCount-*show)
					break
				}
				fmt.Printf("       {%d,%d,%d}\n", t[0], t[1], t[2])
			}
		}
	}
	if res.Verify != nil {
		fmt.Println(checkLine(res.Verify, res.Meta.Faults))
		if res.Verify.Mode == "count" && !res.Verify.OK {
			return fmt.Errorf("count mismatch: %s", res.Verify.Detail)
		}
	}
	return nil
}

// checkLine is the line reporting a verification. A failed check names
// its possible causes: a probabilistic miss or a bug for the Monte Carlo
// listing and finding checks, a bug for the exact one-sided, count and
// churn checks, and, under a plan that injects faults, those faults first.
func checkLine(v *congest.VerifyReport, fm *congest.FaultSummary) string {
	if v.OK {
		return fmt.Sprintf("check: %s OK", v.Mode)
	}
	monteCarlo := v.Mode == congest.VerifyListing || v.Mode == congest.VerifyFinding
	injected := injectedFaults(fm)
	var cause string
	switch {
	case injected != "" && monteCarlo:
		cause = "injected faults [" + injected + "], probabilistic miss or bug"
	case injected != "":
		cause = "injected faults [" + injected + "] or bug"
	case monteCarlo:
		cause = "probabilistic miss or bug"
	default:
		cause = "bug"
	}
	return fmt.Sprintf("check: %s FAILED (%s): %s", v.Mode, cause, v.Detail)
}

// injectedFaults names the faults a plan injects, "" for none.
func injectedFaults(fm *congest.FaultSummary) string {
	if fm == nil {
		return ""
	}
	var names []string
	if fm.Crashes > 0 {
		names = append(names, fmt.Sprintf("crashes=%d", fm.Crashes))
	}
	if fm.Loss > 0 {
		names = append(names, fmt.Sprintf("loss=%g", fm.Loss))
	}
	if fm.Dup > 0 {
		names = append(names, fmt.Sprintf("dup=%g", fm.Dup))
	}
	if fm.DelayMax > 0 {
		names = append(names, fmt.Sprintf("delayMax=%d", fm.DelayMax))
	}
	if fm.DelayLinks > 0 {
		names = append(names, fmt.Sprintf("links=%d", fm.DelayLinks))
	}
	return strings.Join(names, " ")
}

// parseCheckpointFlag parses "-checkpoint every=N,dir=PATH".
func parseCheckpointFlag(s string, resume bool) (*congest.CheckpointSpec, error) {
	if s == "" {
		if resume {
			return nil, fmt.Errorf("-resume requires -checkpoint")
		}
		return nil, nil
	}
	cs := &congest.CheckpointSpec{Resume: resume}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad -checkpoint entry %q (want key=value)", kv)
		}
		switch k {
		case "every":
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("bad -checkpoint every=%q: %v", v, err)
			}
			cs.Every = n
		case "dir":
			cs.Dir = v
		default:
			return nil, fmt.Errorf("unknown -checkpoint key %q (want every, dir)", k)
		}
	}
	return cs, nil
}

// parseFaultsFlag parses "-faults": "@file.json" loads a FaultSpec JSON
// document (unknown fields rejected, like the job API); anything else is
// the compact comma-separated key=value form with repeatable crash=N@R and
// link=F>T@K entries.
func parseFaultsFlag(s string) (*congest.FaultSpec, error) {
	if s == "" {
		return nil, nil
	}
	if path, ok := strings.CutPrefix(s, "@"); ok {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		f := &congest.FaultSpec{}
		if err := dec.Decode(f); err != nil {
			return nil, fmt.Errorf("bad -faults file %s: %v", path, err)
		}
		return f, nil
	}
	f := &congest.FaultSpec{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad -faults entry %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "seed":
			f.Seed, err = strconv.ParseInt(v, 10, 64)
		case "loss":
			f.Loss, err = strconv.ParseFloat(v, 64)
		case "dup":
			f.Dup, err = strconv.ParseFloat(v, 64)
		case "delayMax":
			f.DelayMax, err = strconv.Atoi(v)
		case "crash":
			node, round, ok := strings.Cut(v, "@")
			if !ok {
				err = fmt.Errorf("want NODE@ROUND")
				break
			}
			var c congest.FaultCrash
			if c.Node, err = strconv.Atoi(node); err != nil {
				break
			}
			if c.Round, err = strconv.Atoi(round); err != nil {
				break
			}
			f.Crashes = append(f.Crashes, c)
		case "link":
			ft, kk, ok := strings.Cut(v, "@")
			from, to, ok2 := strings.Cut(ft, ">")
			if !ok || !ok2 {
				err = fmt.Errorf("want FROM>TO@K")
				break
			}
			var l congest.FaultLink
			if l.From, err = strconv.Atoi(from); err != nil {
				break
			}
			if l.To, err = strconv.Atoi(to); err != nil {
				break
			}
			if l.K, err = strconv.Atoi(kk); err != nil {
				break
			}
			f.DelayLinks = append(f.DelayLinks, l)
		default:
			return nil, fmt.Errorf("unknown -faults key %q (want seed, loss, dup, delayMax, crash, link)", k)
		}
		if err != nil {
			return nil, fmt.Errorf("bad -faults entry %q: %v", kv, err)
		}
	}
	return f, nil
}

// replay re-derives one round's observation stream from the nearest
// checkpoint and prints it.
func replay(spec congest.JobSpec, round int) error {
	if spec.Checkpoint == nil {
		return fmt.Errorf("-replay-round requires -checkpoint")
	}
	info, err := congest.NewSession().Replay(spec, round, round, replayPrinter{})
	if err != nil {
		return err
	}
	fmt.Printf("replay: round=%d anchor=%d replayedRounds=%d\n",
		round, info.CheckpointRound, info.ReplayedRounds)
	return nil
}

// replayPrinter prints the replayed window's observation stream, fault
// events included.
type replayPrinter struct{}

func (replayPrinter) OnSegment(s congest.SegmentInfo) {
	fmt.Printf("seg:   %s start=%d rounds=%d\n", s.Name, s.StartRound, s.Rounds)
}

func (replayPrinter) OnFault(ev congest.FaultEvent) {
	fmt.Printf("fault: %s node=%d round=%d\n", ev.Kind, ev.Node, ev.Round)
}

func (replayPrinter) OnRound(round int, d congest.RoundDelta) {
	fmt.Printf("round %d: messages=%d words=%d moved=%v\n", round, d.Messages, d.Words, d.Moved)
}

func (replayPrinter) OnTriangle(node int, t congest.Triangle) {
	fmt.Printf("tri:   node=%d {%d,%d,%d}\n", node, t[0], t[1], t[2])
}

// cancelAtObserver cancels the run's context during the target round, so
// the engine stops at that round's boundary (the deterministic prefix).
type cancelAtObserver struct {
	at     int
	cancel context.CancelFunc
}

func (o *cancelAtObserver) OnSegment(congest.SegmentInfo) {}

func (o *cancelAtObserver) OnRound(round int, d congest.RoundDelta) {
	if round == o.at-1 {
		o.cancel()
	}
}

func (o *cancelAtObserver) OnTriangle(int, congest.Triangle) {}
