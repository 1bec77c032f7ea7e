package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailLadder is the percentiles a tail is reported at, highest first. A
// fixed ladder rather than the single highest rank with minBeyond samples
// above it keeps the reported tail away from the last few samples, which
// one stall decides, so it repeats from run to run.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailStat is a nearest-rank percentile of a sample and how many samples
// lie above it.
type tailStat struct {
	Value      float64
	Percentile float64
	Beyond     int
	Samples    int
}

// tailOf picks the highest ladder percentile of xs with at least minBeyond
// samples above it. With too few samples for any of them it falls back to
// the maximum, at p100 with none beyond.
func tailOf(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if beyond := n - 1 - idx; beyond >= minBeyond {
			return tailStat{Value: s[idx], Percentile: p, Beyond: beyond, Samples: n}
		}
	}
	return tailStat{Value: s[n-1], Percentile: 100, Samples: n}
}

// tally counts checked operations. A run is correct only when it attempted
// at least one and none failed.
type tally struct {
	attempted, failed int
	firstErr          string
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == "" {
			t.firstErr = err.Error()
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

func (t tally) correct() bool { return t.attempted > 0 && t.failed == 0 }

// checkResponse is the output gate for one HTTP reply: status 200 and the
// exact bytes of the warm-up reply for the same spec. A 429 or any other
// refusal is a failure like a wrong answer.
func checkResponse(status int, body, ref []byte, err error) error {
	switch {
	case err != nil:
		return err
	case status != http.StatusOK:
		return fmt.Errorf("HTTP %d: %.200s", status, body)
	}
	return checkBody(body, ref)
}

// checkBody requires a result body to equal the reference bytes.
func checkBody(body, ref []byte) error {
	if !bytes.Equal(body, ref) {
		return errors.New("result differs from the warm-up result for the same spec")
	}
	return nil
}

// checkVerified requires verify.ok in a Result body. Every workload spec
// verifies with the default (auto) oracle check.
func checkVerified(body []byte) error {
	var r struct {
		Verify *struct {
			OK     bool   `json:"ok"`
			Detail string `json:"detail"`
		} `json:"verify"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if r.Verify == nil {
		return errors.New("result carries no verification report")
	}
	if !r.Verify.OK {
		return fmt.Errorf("verification failed: %s", r.Verify.Detail)
	}
	return nil
}

// span is one timed call at a layer boundary. Start and End are seconds
// since the trace began; Parent indexes the span that made the call (-1
// for a root); spans of one job share Job.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Job    string  `json:"job"`
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]float64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, spans, kids[i])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's, so overlapping children are not subtracted twice.
func covered(p span, spans []span, kids []int) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := 0.0
	for i := 0; i < len(iv); {
		a, b := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= b; i++ {
			b = max(b, iv[i][1])
		}
		total += b - a
	}
	return total
}
