package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/congest"
	"repro/internal/httpapi"
)

func startServer(t *testing.T, opts ...congest.Option) (*httptest.Server, *congest.Service) {
	t.Helper()
	svc := congest.NewService(opts...)
	srv := httptest.NewServer(httpapi.New(svc))
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv, svc
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const findSpec = `{"graph":{"generator":"gnp","n":32,"p":0.5,"seed":1},"algo":"find","seed":7}`

// TestServeSyncRun is the end-to-end smoke test: start the server, POST
// one find job, assert a verified response.
func TestServeSyncRun(t *testing.T) {
	srv, _ := startServer(t)
	resp, body := postJSON(t, srv.URL+"/v1/run", findSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res congest.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("bad result JSON: %v\n%s", err, body)
	}
	if !res.Found {
		t.Fatal("no triangle found on dense G(32, 1/2)")
	}
	if res.Verify == nil || !res.Verify.OK {
		t.Fatalf("response not verified: %+v", res.Verify)
	}
	if res.Meta.Algo != "find" || res.Meta.Cancelled {
		t.Fatalf("meta: %+v", res.Meta)
	}
}

// TestServeConcurrentJobsBitIdentical: the acceptance criterion — the
// server serves concurrent find/list jobs with results bit-identical to
// single-job runs.
func TestServeConcurrentJobsBitIdentical(t *testing.T) {
	specs := []string{
		findSpec,
		`{"graph":{"generator":"gnp","n":32,"p":0.5,"seed":1},"algo":"list","seed":3}`,
		`{"graph":{"generator":"gnp","n":28,"p":0.5,"seed":2},"algo":"list","seed":4}`,
		`{"graph":{"generator":"gnp","n":32,"p":0.5,"seed":1},"algo":"find","seed":9}`,
	}
	// Ground truth: single-job runs through a fresh session each (oracle
	// workers pinned to the service default).
	want := make([]congest.Result, len(specs))
	for i, s := range specs {
		spec, err := congest.ParseJobSpec([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = congest.Run(context.Background(), spec, congest.WithOracleWorkers(1)); err != nil {
			t.Fatal(err)
		}
	}
	srv, _ := startServer(t, congest.WithWorkers(4))
	// Submit everything async so the jobs genuinely overlap.
	ids := make([]string, len(specs))
	for i, s := range specs {
		resp, body := postJSON(t, srv.URL+"/v1/jobs", s)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d: %s", i, resp.StatusCode, body)
		}
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
			t.Fatalf("submit %d: %v %s", i, err, body)
		}
		ids[i] = v.ID
	}
	for i, id := range ids {
		var got congest.Result
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, body := getJSON(t, srv.URL+"/v1/jobs/"+id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("poll %s: status %d", id, resp.StatusCode)
			}
			var v struct {
				Status congest.JobStatus `json:"status"`
				Result *congest.Result   `json:"result"`
				Error  string            `json:"error"`
			}
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatal(err)
			}
			if v.Status == congest.JobDone {
				got = *v.Result
				break
			}
			if v.Status == congest.JobFailed || v.Status == congest.JobCancelled {
				t.Fatalf("job %s: %s %s", id, v.Status, v.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, v.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("job %d: served result differs from single-job run", i)
		}
	}
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServeRejectsBadSpecs: unknown fields and shape errors are 400s.
func TestServeRejectsBadSpecs(t *testing.T) {
	srv, _ := startServer(t)
	for _, body := range []string{
		`{"graph":{"generator":"gnp","n":8},"algo":"find","bandwith":4}`, // typo
		`{"graph":{},"algo":"find"}`,
		`{"algo":"nope","graph":{"generator":"gnp","n":8}}`,
		`not json`,
	} {
		resp, out := postJSON(t, srv.URL+"/v1/run", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d (%s)", body, resp.StatusCode, out)
		}
	}
}

// TestServeCancelAndList: POST /cancel stops a job but keeps it listed;
// DELETE removes it from the history entirely.
func TestServeCancelAndList(t *testing.T) {
	srv, _ := startServer(t, congest.WithWorkers(1))
	// A slow job plus a queued one, then cancel the queued one.
	slow := `{"graph":{"generator":"gnp","n":96,"p":0.5,"seed":1},"algo":"list","seed":1,"verify":"none"}`
	_, body1 := postJSON(t, srv.URL+"/v1/jobs", slow)
	_, body2 := postJSON(t, srv.URL+"/v1/jobs", slow)
	var j1, j2 struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body1, &j1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &j2); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, srv.URL+"/v1/jobs/"+j2.ID+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d (%s)", resp.StatusCode, body)
	}
	var view struct {
		Status congest.JobStatus `json:"status"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.Status != congest.JobCancelled && view.Status != congest.JobDone {
		t.Fatalf("cancelled job status %s", view.Status)
	}
	resp2, listing := getJSON(t, srv.URL+"/v1/jobs")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp2.StatusCode)
	}
	var views []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(listing, &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 {
		t.Fatalf("listing has %d jobs after cancel", len(views))
	}

	// DELETE truly forgets the job.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+j2.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", delResp.StatusCode)
	}
	if resp, _ := getJSON(t, srv.URL+"/v1/jobs/"+j2.ID); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted job still answers: %d", resp.StatusCode)
	}
	_, listing = getJSON(t, srv.URL+"/v1/jobs")
	views = nil
	if err := json.Unmarshal(listing, &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 {
		t.Fatalf("listing has %d jobs after delete", len(views))
	}
	if resp, _ := getJSON(t, srv.URL+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status %d", resp.StatusCode)
	}
}

// TestServeMeta: discovery endpoints answer.
func TestServeMeta(t *testing.T) {
	srv, _ := startServer(t)
	for _, path := range []string{"/healthz", "/v1/algorithms", "/v1/generators", "/v1/experiments"} {
		resp, body := getJSON(t, srv.URL+path)
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}
