package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/congest"
	"repro/internal/graph"
	"repro/internal/journal"
)

// selfTimeTolerance bounds how far the session layers' self times may sum
// from session.run_s. The spans tile each RunObserved call, so any larger
// gap means overlapping or missing spans.
const selfTimeTolerance = 0.01

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (tr *tracer) add(name string, start, end time.Time, parent int, job string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Start: start.Sub(tr.t0).Seconds(), End: end.Sub(tr.t0).Seconds(), Parent: parent, Job: job})
	return len(tr.spans) - 1
}

// segMark is one segment of a RunObserved call as its observer saw it.
type segMark struct {
	name   string
	start  time.Time // OnSegment
	first  time.Time // first OnRound of the segment
	rounds int
}

// runObs records the observer stream of one Session.RunObserved call; the
// callbacks run on the calling goroutine.
type runObs struct {
	segs []segMark
	last time.Time // last OnRound
}

func (o *runObs) OnSegment(s congest.SegmentInfo) {
	o.segs = append(o.segs, segMark{name: s.Name, start: time.Now()})
}

func (o *runObs) OnRound(int, congest.RoundDelta) {
	now := time.Now()
	if n := len(o.segs); n > 0 {
		if o.segs[n-1].rounds == 0 {
			o.segs[n-1].first = now
		}
		o.segs[n-1].rounds++
	}
	o.last = now
}

func (o *runObs) OnTriangle(int, congest.Triangle) {}

// family groups a segment by the paper's sub-algorithm: a1/a2/a3 segments
// of the finder and lister, and single-schedule runs of those algorithms;
// every other single-schedule algorithm is "run".
func family(seg, algo string) string {
	base, _, _ := strings.Cut(seg, "#")
	switch {
	case base == "a1" || base == "a2" || base == "a3":
		return base
	case algo == "a1" || algo == "a2" || algo == "a3":
		return algo
	}
	return "run"
}

// sessionSpans turns one observed call into spans that tile it:
// session.prepare up to the first segment, one core.<family> span per
// segment (with its sim.first_round child), and session.finish after the
// last round. Jobs with no segments (count) stay a bare session.run.
func (tr *tracer) sessionSpans(job, algo string, call, ret time.Time, o *runObs) {
	root := tr.add("session.run", call, ret, -1, job)
	if len(o.segs) == 0 {
		return
	}
	tr.add("session.prepare", call, o.segs[0].start, root, job)
	for i, s := range o.segs {
		end := o.last
		if i+1 < len(o.segs) {
			end = o.segs[i+1].start
		}
		if end.Before(s.start) {
			end = s.start
		}
		seg := tr.add("core."+family(s.name, algo), s.start, end, root, job)
		if s.rounds > 0 {
			tr.add("sim.first_round", s.start, s.first, seg, job)
		}
	}
	last := o.last
	if last.Before(o.segs[len(o.segs)-1].start) {
		last = o.segs[len(o.segs)-1].start
	}
	tr.add("session.finish", last, ret, root, job)
}

// eventObs stamps the first and last observer event of a service job. The
// callbacks run on the job's worker goroutine; the fields are read only
// after Done closes, which orders the accesses.
type eventObs struct {
	first, last time.Time
	n           int
}

func (o *eventObs) mark() {
	now := time.Now()
	if o.n == 0 {
		o.first = now
	}
	o.last = now
	o.n++
}

func (o *eventObs) OnSegment(congest.SegmentInfo)    { o.mark() }
func (o *eventObs) OnRound(int, congest.RoundDelta)  { o.mark() }
func (o *eventObs) OnTriangle(int, congest.Triangle) {}

// passStats is what one in-process pass over the client lists measured.
type passStats struct {
	lat              []float64
	tally            tally
	jobs             int
	rounds, ffRounds int64 // from Result.Meta
	words            int64 // from Result.Metrics
	observedRounds   int64 // OnRound events
	responseBytes    int64
}

func (p *passStats) merge(o passStats) {
	p.lat = append(p.lat, o.lat...)
	p.tally.add(o.tally)
	p.jobs += o.jobs
	p.rounds += o.rounds
	p.ffRounds += o.ffRounds
	p.words += o.words
	p.observedRounds += o.observedRounds
	p.responseBytes += o.responseBytes
}

// encodeResult renders a Result exactly as triserve's POST /v1/run does.
func encodeResult(res congest.Result) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		panic(err) // a Result is plain data
	}
	return buf.Bytes()
}

// onePass walks the first pass of the workload's request sequence in a
// closed loop, as the served run does, giving fn each client's own stats,
// and merges what the clients measured.
func onePass(w *workload, fn func(c, i, ji int, ps *passStats)) passStats {
	per := make([]passStats, w.clients)
	walk(w.order[:w.perPass], w.clients, func(c, i, ji int) { fn(c, i, ji, &per[c]) })
	var out passStats
	for _, p := range per {
		out.merge(p)
	}
	return out
}

// sessionPass walks every client list once with Session.RunObserved. With a
// tracer each call is observed and turned into spans; without one the
// calls are plain runs, the base tracing.overhead compares against.
func sessionPass(ctx context.Context, sess *congest.Session, w *workload, specs []congest.JobSpec, refs [][]byte, tr *tracer) passStats {
	return onePass(w, func(c, i, ji int, ps *passStats) {
		var obs congest.Observer
		var ro *runObs
		if tr != nil {
			ro = &runObs{}
			obs = ro
		}
		call := time.Now()
		res, err := sess.RunObserved(ctx, specs[ji], obs)
		ret := time.Now()
		ps.lat = append(ps.lat, ret.Sub(call).Seconds())
		if err == nil {
			err = checkBody(encodeResult(res), refs[ji])
		}
		ps.tally.record(err)
		ps.jobs++
		ps.rounds += int64(res.Meta.ExecutedRounds)
		ps.ffRounds += int64(res.Meta.FastForwardedRounds)
		ps.words += res.Metrics.WordsDelivered
		if ro != nil {
			tr.sessionSpans(fmt.Sprintf("c%d-%d", c, i), w.jobs[ji].algo, call, ret, ro)
			for _, s := range ro.segs {
				ps.observedRounds += int64(s.rounds)
			}
		}
	})
}

// servicePass walks the first pass through the Service the way triserve's
// POST /v1/run handler does: decode the body, submit, wait for Done,
// encode the Result.
func servicePass(ctx context.Context, svc *congest.Service, w *workload, refs [][]byte, tr *tracer) passStats {
	return onePass(w, func(c, i, ji int, ps *passStats) {
		job := fmt.Sprintf("c%d-%d", c, i)
		ps.jobs++
		t0 := time.Now()
		spec, err := congest.ParseJobSpec(w.jobs[ji].body)
		t1 := time.Now()
		if err != nil {
			ps.tally.record(err)
			return
		}
		obs := &eventObs{}
		j, err := svc.SubmitJobObserved(congest.SubmitRequest{Spec: spec}, obs)
		t2 := time.Now()
		if err != nil {
			ps.tally.record(err)
			return
		}
		select {
		case <-j.Done():
		case <-ctx.Done():
			j.Cancel()
			<-j.Done()
		}
		t3 := time.Now()
		res, runErr, _ := j.Result()
		body := encodeResult(res)
		t4 := time.Now()
		ps.lat = append(ps.lat, t4.Sub(t0).Seconds())
		ps.responseBytes += int64(len(body))
		if runErr == nil {
			runErr = checkBody(body, refs[ji])
		}
		ps.tally.record(runErr)
		root := tr.add("job", t0, t4, -1, job)
		tr.add("httpapi.decode", t0, t1, root, job)
		tr.add("service.submit", t1, t2, root, job)
		if obs.n > 0 {
			tr.add("service.wait", t2, obs.first, root, job)
			tr.add("service.run", obs.first, obs.last, root, job)
			tr.add("service.finish", obs.last, t3, root, job)
		} else {
			// count jobs emit no observer events: wait and run are one span.
			tr.add("service.run", t2, t3, root, job)
		}
		tr.add("httpapi.encode", t3, t4, root, job)
	})
}

// oracleCall is the verification oracle the job's auto verify mode runs:
// a listing for complete listers, a count for the finder and the counter,
// none for one-sided checks.
func oracleCall(algo string) func(*graph.OracleScratch, *graph.Graph) {
	switch algo {
	case "list", "twohop", "local", "dolev", "dolev-deg", "dolev-relay", "bcast-twohop":
		return func(s *graph.OracleScratch, g *graph.Graph) { s.ListTriangles(g) }
	case "find", "count":
		return func(s *graph.OracleScratch, g *graph.Graph) { s.CountTriangles(g) }
	}
	return nil
}

// runTraced is the per-layer run: the workload's job lists in-process, one
// pass each through the Session (untraced, then traced) and through the
// Service (traced), with the layer calls timed from here.
func runTraced(ctx context.Context, w *workload, dir, traceDir string, prov *provenance) (report, error) {
	rep := report{Metrics: map[string]metric{}}
	var t tally
	jpath := filepath.Join(dir, "traced.journal")
	prov.JournalFS = fsType(dir)
	if err := w.freshJournal(jpath); err != nil {
		return report{}, err
	}
	specs := make([]congest.JobSpec, len(w.jobs))
	for i, j := range w.jobs {
		s, err := congest.ParseJobSpec(j.body)
		if err != nil {
			return report{}, err
		}
		specs[i] = s
	}
	svc, err := congest.OpenService(congest.WithJournal(jpath))
	if err != nil {
		return report{}, err
	}
	defer svc.Close()
	sess := svc.Session()

	// Cold graph builds, one per distinct graph.
	var cold []float64
	seen := map[string]bool{}
	for _, s := range specs {
		key, _ := json.Marshal(s.Graph) // a GraphSpec is plain data
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		t0 := time.Now()
		if _, err := sess.Graph(s.Graph); err != nil {
			return report{}, err
		}
		cold = append(cold, time.Since(t0).Seconds())
	}
	rep.set("session.graph_s", mean(cold))
	rep.set("session.graph_cold", float64(len(cold)))

	loadS, err := graphLoad(w, specs, sess, dir)
	if err != nil {
		return report{}, err
	}
	rep.set("graph.load_s", loadS)
	rep.set("graph.oracle_s", oracleTime(w, specs, sess))

	// Warm-up: every distinct spec once; the encoded Results are the
	// references every later run of the same spec must match.
	refs := make([][]byte, len(specs))
	for i, s := range specs {
		res, err := sess.Run(ctx, s)
		refs[i] = encodeResult(res)
		if err == nil {
			err = checkVerified(refs[i])
		}
		t.record(err)
	}
	if !t.correct() {
		rep.finish(ctx, t)
		return rep, nil
	}

	plain := sessionPass(ctx, sess, w, specs, refs, nil)
	st := &tracer{t0: time.Now()}
	traced := sessionPass(ctx, sess, w, specs, refs, st)
	t.add(plain.tally)
	t.add(traced.tally)

	self := selfTimes(st.spans)
	var runTotal, selfSum float64
	for _, s := range st.spans {
		if s.Parent < 0 {
			runTotal += s.End - s.Start
		}
	}
	for _, v := range self {
		selfSum += v
	}
	fmt.Printf("session self times sum to %.6g s of %.6g s in session.run (tolerance %.0f%%)\n",
		selfSum, runTotal, 100*selfTimeTolerance)
	if math.Abs(selfSum-runTotal) > selfTimeTolerance*runTotal {
		t.record(fmt.Errorf("self times sum to %g s, session.run to %g s", selfSum, runTotal))
	}
	n := float64(traced.jobs)
	rep.set("session.run_s", runTotal/n)
	rep.set("session.prepare_s", self["session.prepare"]/n)
	rep.set("session.finish_s", self["session.finish"]/n)
	for _, f := range []string{"a1", "a2", "a3", "run"} {
		rep.set("core."+f+"_s", self["core."+f]/n)
	}
	rep.set("sim.first_round_s", self["sim.first_round"]/n)
	var segTotal float64
	for _, s := range st.spans {
		if strings.HasPrefix(s.Name, "core.") {
			segTotal += s.End - s.Start
		}
	}
	rep.set("sim.round_us", 1e6*segTotal/math.Max(1, float64(traced.observedRounds)))
	rep.set("sim.rounds", float64(traced.rounds)/n)
	rep.set("sim.fast_forwarded_rounds", float64(traced.ffRounds)/n)
	rep.set("sim.words", float64(traced.words)/n)
	rep.set("tracing.overhead", median(traced.lat)/median(plain.lat))
	printSelf("session", self, n)

	// The service pass, with the journal and allocation counters around it.
	size0, recs0, err := journalSize(jpath)
	if err != nil {
		return report{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sv := &tracer{t0: time.Now()}
	served := servicePass(ctx, svc, w, refs, sv)
	runtime.ReadMemStats(&m1)
	t.add(served.tally)
	svc.Close()
	size1, recs1, err := journalSize(jpath)
	if err != nil {
		return report{}, err
	}
	sn := float64(served.jobs)
	svcSelf := selfTimes(sv.spans)
	rep.set("httpapi.decode_s", svcSelf["httpapi.decode"]/sn)
	rep.set("httpapi.encode_s", svcSelf["httpapi.encode"]/sn)
	rep.set("httpapi.response_bytes", float64(served.responseBytes)/sn)
	rep.set("service.submit_s", svcSelf["service.submit"]/sn)
	rep.set("service.wait_s", svcSelf["service.wait"]/sn)
	rep.set("service.finish_s", svcSelf["service.finish"]/sn)
	rep.set("journal.bytes_per_job", float64(size1-size0)/sn)
	rep.set("journal.records_per_job", float64(recs1-recs0)/sn)
	rep.set("runtime.allocs_per_job", float64(m1.Mallocs-m0.Mallocs)/sn)
	rep.set("runtime.alloc_bytes_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/sn)
	rep.set("runtime.gc_pause_s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e9/sn)
	printSelf("service", svcSelf, sn)

	openS, replayS, err := journalOpen(jpath, dir)
	if err != nil {
		return report{}, err
	}
	rep.set("journal.open_s", openS)
	rep.set("journal.replay_s", replayS)

	rep.finish(ctx, t)
	path, err := writeTrace(traceDir, prov, rep, st.spans, sv.spans)
	if err != nil {
		return report{}, err
	}
	fmt.Printf("trace written to %s\n", path)
	return rep, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// printSelf prints a pass's per-span self times per job.
func printSelf(pass string, self map[string]float64, jobs float64) {
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s self %-18s %12.6g s/job\n", pass, k, self[k]/jobs)
	}
}

// graphLoad times graph.OpenCSRBinary: on the large fixture, or on the
// workload's generated graphs written out as .csrbin files. It returns the
// median over five rounds of the mean time per file.
func graphLoad(w *workload, specs []congest.JobSpec, sess *congest.Session, dir string) (float64, error) {
	files := []string{w.csrbin}
	if w.csrbin == "" {
		files = nil
		seen := map[string]bool{}
		for _, s := range specs {
			key, _ := json.Marshal(s.Graph) // a GraphSpec is plain data
			if seen[string(key)] {
				continue
			}
			seen[string(key)] = true
			g, err := sess.Graph(s.Graph)
			if err != nil {
				return 0, err
			}
			path := filepath.Join(dir, fmt.Sprintf("g%d.csrbin", len(files)))
			f, err := os.Create(path)
			if err != nil {
				return 0, err
			}
			if err := graph.WriteCSRBinary(f, g); err != nil {
				f.Close()
				return 0, err
			}
			if err := f.Close(); err != nil {
				return 0, err
			}
			files = append(files, path)
		}
	}
	var rounds []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for _, p := range files {
			fh, err := graph.OpenCSRBinary(p)
			if err != nil {
				return 0, err
			}
			fh.Close()
		}
		rounds = append(rounds, time.Since(t0).Seconds()/float64(len(files)))
	}
	return median(rounds), nil
}

// oracleTime is the mean time of one verification oracle call with a fresh
// single-worker scratch, as a Service's Session runs it, over the distinct
// specs whose verify mode uses the oracle.
func oracleTime(w *workload, specs []congest.JobSpec, sess *congest.Session) float64 {
	var times []float64
	for i, s := range specs {
		call := oracleCall(w.jobs[i].algo)
		if call == nil {
			continue
		}
		g, err := sess.Graph(s.Graph)
		if err != nil {
			continue // the warm-up reports the same error as a failed run
		}
		t0 := time.Now()
		call(&graph.OracleScratch{Workers: 1}, g)
		times = append(times, time.Since(t0).Seconds())
	}
	return mean(times)
}

// journalSize returns the journal's size in bytes and its record count.
func journalSize(path string) (int64, int, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	recs, err := journal.ReadFile(path)
	return st.Size(), len(recs), err
}

// journalOpen times journal.Open and OpenService(WithJournal) on fresh
// copies of the journal, three times each; replay is the service open
// minus the bare journal open (medians).
func journalOpen(path, dir string) (openS, replayS float64, err error) {
	var opens, svcs []float64
	cp := filepath.Join(dir, "replay.journal")
	for i := 0; i < 3; i++ {
		if err := copyFile(path, cp); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		jw, _, err := journal.Open(cp)
		if err != nil {
			return 0, 0, err
		}
		opens = append(opens, time.Since(t0).Seconds())
		jw.Close()
		if err := copyFile(path, cp); err != nil {
			return 0, 0, err
		}
		t0 = time.Now()
		svc, err := congest.OpenService(congest.WithJournal(cp))
		if err != nil {
			return 0, 0, err
		}
		svcs = append(svcs, time.Since(t0).Seconds())
		svc.Close()
	}
	openS = median(opens)
	return openS, median(svcs) - openS, nil
}

// writeTrace writes the run's spans, metrics and provenance as one JSON
// file and returns its path.
func writeTrace(dir string, prov *provenance, rep report, session, service []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	type layer struct {
		Name  string `json:"name"`
		Unit  string `json:"unit"`
		Moves string `json:"moves"`
	}
	var layers []layer
	for _, m := range metricTable {
		if m.layer {
			layers = append(layers, layer{m.name, m.unit, m.moves})
		}
	}
	doc := struct {
		Provenance   *provenance       `json:"provenance"`
		Metrics      map[string]metric `json:"metrics"`
		Layers       []layer           `json:"layers"`
		SessionSpans []span            `json:"session_spans"`
		ServiceSpans []span            `json:"service_spans"`
	}{prov, rep.Metrics, layers, session, service}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", prov.Workload, prov.Seed))
	return path, os.WriteFile(path, data, 0o644)
}
