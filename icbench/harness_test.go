package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"icrowd/internal/platform"
)

// stubServer answers the generator's calls instantly, except that the
// stallAt-th /assign (1-based; 0 never) sleeps for stall.
func stubServer(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	t.Helper()
	var assigns atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var v any
		switch {
		case r.Method == http.MethodPut:
			w.WriteHeader(http.StatusCreated)
			return
		case strings.HasSuffix(r.URL.Path, "/assign"):
			if assigns.Add(1) == stallAt {
				time.Sleep(stall)
			}
			v = platform.AssignResponse{Assigned: true, TaskID: 0}
		case strings.HasSuffix(r.URL.Path, "/submit"):
			v = platform.SubmitResponse{Accepted: true}
		case strings.HasSuffix(r.URL.Path, "/status"):
			v = platform.StatusResponse{}
		case strings.HasSuffix(r.URL.Path, "/results"):
			v = platform.ResultsResponse{Results: map[int]string{}}
		}
		json.NewEncoder(w).Encode(v) //nolint:errcheck // the generator notices a bad body
	}))
	t.Cleanup(srv.Close)
	return srv
}

func stubConfig(url string, conns int, ph phaseSpec) genConfig {
	return genConfig{
		Target: url, Seed: 7, DatasetSeed: datasetSeed, Workers: 50, Conns: conns,
		Slots:  []projectRecord{{ID: "p0", Create: true}},
		Phases: []phaseSpec{ph},
	}
}

func TestArrivalsAchieveOfferedRate(t *testing.T) {
	srv := stubServer(t, 0, 0)
	rep, err := runGen(stubConfig(srv.URL, 2, phaseSpec{Name: mainPhase, Rate: 800, Seconds: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	pr := rep.Phases[0]
	if pr.AchievedRate < 0.95*pr.OfferedRate {
		t.Fatalf("achieved %.1f/s against %.1f/s offered", pr.AchievedRate, pr.OfferedRate)
	}
	if n := float64(pr.Arrivals); math.Abs(n-1200) > 150 {
		t.Fatalf("%v arrivals in 1.5s at 800/s", n)
	}
}

func TestStallChargedToQueuedArrivals(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := stubServer(t, 50, stall)
	rep, err := runGen(stubConfig(srv.URL, 1, phaseSpec{Name: mainPhase, Rate: 200, Seconds: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	// Timed from the send, only the stalled request would be slow. Timed
	// from when each arrival was due, every arrival that came due during
	// the stall carries the rest of it: about 200/s * 0.2s of them wait
	// at least 100ms.
	slow := 0
	for _, ms := range rep.Phases[0].AssignMs {
		if ms >= 100 {
			slow++
		}
	}
	if slow < 20 {
		t.Fatalf("%d arrivals waited 100ms or more behind a %v stall; want at least 20", slow, stall)
	}
	if p99, _ := percentile(rep.Phases[0].LagMs, 0.99); p99 < 100 {
		t.Fatalf("generator lag p99 %.1fms does not show the stall", p99)
	}
}

func TestFailuresSortAsInfinity(t *testing.T) {
	pr := &phaseReport{AssignMs: []float64{1, 2, failedSample, 3}, SubmitMs: []float64{noSample, failedSample, 1, 1}}
	got := assignLatencies(pr)
	if top, _ := percentile(got, 1); !math.IsInf(top, 1) {
		t.Fatalf("slowest assign = %v, want +Inf for the failure", top)
	}
	if n := len(submitLatencies(pr)); n != 3 {
		t.Fatalf("%d submit samples, want 3 (no-submit arrivals dropped)", n)
	}
	if n := attempted(pr); n != 7 {
		t.Fatalf("attempted %d, want every assign and submit (7)", n)
	}
	// 2% failures push the p99 past any latency limit.
	xs := make([]float64, 0, 2000)
	for i := 0; i < 1960; i++ {
		xs = append(xs, 1)
	}
	for i := 0; i < 40; i++ {
		xs = append(xs, failedMs)
	}
	if p99, _ := percentile(xs, 0.99); !math.IsInf(p99, 1) {
		t.Fatalf("p99 with 2%% failures = %v, want +Inf", p99)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.99, false},
		{999, 0.99, false},
		{1000, 0.99, true},
		{19, 0.5, false},
		{20, 0.5, true},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, c.p); ok != c.want {
			t.Errorf("n=%d p=%v: reported=%v, want %v", c.n, c.p, ok, c.want)
		}
	}
}
