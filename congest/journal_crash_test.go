//go:build unix

package congest

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// crashEnv carries a crash point to the re-executed test binary; the
// journal path rides in crashEnv+"_PATH".
const crashEnv = "CONGEST_JOURNAL_CRASH"

const (
	crashHistory = 4  // small, so evictions soon push dead bytes past the floor
	crashMaxJobs = 80 // far more than the first compaction needs
)

// crashSpec is the i-th job of the crash workload: a cheap listing job
// whose Result (about 4 KB) differs from every other job's.
func crashSpec(i int) JobSpec {
	return JobSpec{Graph: GraphSpec{Generator: "gnp", N: 28, P: 0.5, Seed: int64(i)}, Algo: "local", Seed: 7}
}

func crashService(t *testing.T, jpath string) *Service {
	t.Helper()
	var opts []Option
	if jpath != "" {
		opts = append(opts, WithJournal(jpath))
	}
	svc, err := OpenService(append(opts, WithJobHistory(crashHistory), WithWorkers(1))...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// crashTable waits for every job of svc and returns its table: id, status
// and Result JSON, in order.
func crashTable(t *testing.T, svc *Service) []string {
	t.Helper()
	var out []string
	for _, j := range svc.Jobs() {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, j.ID()+" "+string(j.Status())+" "+string(b))
	}
	return out
}

// TestJournalCrashPoints kills a service process with SIGKILL inside its
// first compaction — mid temporary-file write, after the temporary file's
// fsync but before the rename, and after the rename but before the
// directory fsync — and reopens the journal it left. The recovered job
// table and Results must be byte-identical to those of an uninterrupted
// run of the same jobs, and no temporary file may survive the reopen.
func TestJournalCrashPoints(t *testing.T) {
	if point := os.Getenv(crashEnv); point != "" {
		crashChild(t, point, os.Getenv(crashEnv+"_PATH"))
		return
	}
	for _, point := range []string{"temp-written", "temp-synced", "renamed"} {
		t.Run(point, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "jobs.journal")
			cmd := exec.Command(os.Args[0], "-test.run=^TestJournalCrashPoints$", "-test.count=1")
			cmd.Env = append(os.Environ(), crashEnv+"="+point, crashEnv+"_PATH="+jpath)
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
				t.Fatalf("child was not killed at %s: %v\n%s", point, err, out)
			}

			svc := crashService(t, jpath)
			if _, err := os.Stat(jpath + ".compact"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("temporary file survived the reopen: %v", err)
			}
			got := crashTable(t, svc)
			svc.Close()
			if len(got) == 0 {
				t.Fatal("no jobs recovered")
			}

			// The uninterrupted run: the same jobs, up to the newest one
			// the journal recovered.
			last := jobNumber(svc.Jobs()[len(got)-1].ID())
			ref := crashService(t, "")
			for i := 1; i <= last; i++ {
				j, err := ref.Submit(crashSpec(i))
				if err != nil {
					t.Fatal(err)
				}
				<-j.Done()
			}
			want := crashTable(t, ref)
			ref.Close()
			if len(got) != len(want) {
				t.Fatalf("recovered %d jobs, uninterrupted run keeps %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal([]byte(got[i]), []byte(want[i])) {
					t.Fatalf("job %d differs from the uninterrupted run:\ngot  %.120s\nwant %.120s", i, got[i], want[i])
				}
			}
			t.Logf("killed at %s after %d jobs; recovered %d", point, last, len(got))
		})
	}
}

// crashChild runs the crash workload on the journal at jpath and kills
// its own process at point during the first compaction.
func crashChild(t *testing.T, point, jpath string) {
	svc := crashService(t, jpath)
	svc.store.w.Hook = func(p string) error {
		if p == point {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {}
		}
		return nil
	}
	for i := 1; i <= crashMaxJobs; i++ {
		j, err := svc.Submit(crashSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
	}
	t.Fatalf("no compaction reached %s in %d jobs", point, crashMaxJobs)
}
