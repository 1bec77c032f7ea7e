// Command triserve serves the repro/congest job API over HTTP JSON: a
// production-shaped front end that multiplexes concurrent triangle
// finding/listing/counting/churn jobs over one congest.Service with
// per-request cancellation (dropping a connection cancels its synchronous
// job at the next round boundary).
//
// Endpoints (see internal/httpapi for the full contract):
//
//	GET    /healthz          liveness
//	GET    /v1/algorithms    registered algorithm names
//	GET    /v1/generators    registered graph generator names
//	GET    /v1/experiments   registered experiment sweeps
//	GET    /v1/stats         worker/queue/tenant load snapshot
//	POST   /v1/run              run one JobSpec synchronously, return its Result
//	POST   /v1/jobs             submit one JobSpec asynchronously, return {id}
//	GET    /v1/jobs             list submitted jobs
//	GET    /v1/jobs/{id}        one job's status plus Result once done
//	                            (?wait=5s long-polls until terminal)
//	POST   /v1/jobs/{id}/cancel cancel a job (its prefix result stays readable;
//	                            checkpointing jobs persist their boundary for resume)
//	DELETE /v1/jobs/{id}        delete a job from history and reap its checkpoint files
//
// Submission endpoints take tenant/key/priority/deadline query
// parameters; a saturated service answers 429 with Retry-After. Job
// specs are decoded strictly: unknown fields are a 400, not a silent
// default. Results are bit-identical to single-job runs of the same
// spec.
//
// With -journal the server is durable: kill -9 loses at most the
// unsynced tail, and the next start replays the journal — finished jobs
// keep their results, interrupted jobs re-run (resuming from their
// latest checkpoint when checkpointing was on). SIGTERM/SIGINT drain
// gracefully: admission stops, running jobs are cancelled at their next
// checkpoint boundary and left without a terminal record, so the next
// start re-runs them, and the process exits within -drain-timeout.
//
// Example:
//
//	triserve -addr :8080 -workers 4 -max-n 4096 -journal /var/lib/triserve/jobs.journal &
//	curl -s localhost:8080/v1/run -d \
//	  '{"graph":{"generator":"gnp","n":64,"p":0.5,"seed":1},"algo":"find","seed":7}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/congest"
	"repro/internal/httpapi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "triserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("triserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "concurrent job budget (0 = all CPUs)")
		maxN       = fs.Int("max-n", 1<<14, "largest admissible graph (vertices); 0 = unlimited")
		journal    = fs.String("journal", "", "crash-safe job journal path (empty = in-memory only)")
		queueDepth = fs.Int("queue-depth", 0, "pending-queue bound before 429s (0 = default 1024, <0 = unlimited)")
		quota      = fs.Int("quota", 0, "per-tenant in-flight job bound (0 = unlimited)")
		deadline   = fs.Duration("deadline", 0, "server-side per-job execution deadline (0 = none)")
		drain      = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound on SIGTERM/SIGINT")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	svc, err := congest.OpenService(
		congest.WithWorkers(*workers),
		congest.WithMaxVertices(*maxN),
		congest.WithJournal(*journal),
		congest.WithQueueDepth(*queueDepth),
		congest.WithTenantQuota(*quota),
		congest.WithJobDeadline(*deadline),
	)
	if err != nil {
		return err
	}
	server := &http.Server{
		Addr:              *addr,
		Handler:           httpapi.New(svc),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "triserve: listening on %s\n", *addr)
	select {
	case err := <-errc:
		svc.Close()
		return err
	case <-ctx.Done():
		// Drain: stop accepting connections, then drain the service —
		// running jobs stop at their next checkpoint boundary without a
		// terminal record, so the next start resumes them.
		fmt.Fprintf(os.Stderr, "triserve: draining (bound %s)\n", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		shutErr := server.Shutdown(drainCtx)
		if err := svc.CloseContext(drainCtx); err != nil {
			return err
		}
		return shutErr
	}
}
