package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"icrowd/internal/baseline"
	"icrowd/internal/obsv"
	"icrowd/internal/store"
	"icrowd/internal/task"
)

// flakyBackend is an in-memory store.Backend whose appends fail while
// broken is set, for driving the event-log readiness check both directions.
type flakyBackend struct {
	mu      sync.Mutex
	broken  bool
	seq     int64
	lastErr error
}

func (b *flakyBackend) Append(e store.Event) (store.Event, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		b.lastErr = errors.New("disk full")
		return store.Event{}, b.lastErr
	}
	b.lastErr = nil
	b.seq++
	e.Seq = b.seq
	return e, nil
}

func (b *flakyBackend) LastSeq() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

func (b *flakyBackend) Healthy() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}

func (b *flakyBackend) Close() error { return nil }

func (b *flakyBackend) setBroken(v bool) {
	b.mu.Lock()
	b.broken = v
	b.mu.Unlock()
}

func probe(t *testing.T, base, path string) (int, obsv.ProbeResponse) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body obsv.ProbeResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestHealthzAlwaysOK pins liveness: /v1/healthz answers 200 even while
// readiness is failing.
func TestHealthzAlwaysOK(t *testing.T) {
	srv, s, _ := newMetricsServer(t)
	s.Health().AddCheck("doomed", func() error { return errors.New("down") })

	code, body := probe(t, srv.URL, "/v1/healthz")
	if code != http.StatusOK || body.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok", code, body.Status)
	}
	if code, _ := probe(t, srv.URL, "/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a failing check = %d, want 503", code)
	}
}

// TestReadyzFlipsOnUnwritableEventLog drives the event_log readiness check
// end to end: break the log, trigger an append through /v1/submit, watch
// /v1/readyz flip to 503 naming event_log, then heal the log and watch
// readiness recover on the next successful append.
func TestReadyzFlipsOnUnwritableEventLog(t *testing.T) {
	w := &flakyBackend{}
	srv, _, reg := newMetricsServer(t, WithBackend(w))

	if code, _ := probe(t, srv.URL, "/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before any fault = %d, want 200", code)
	}

	// Assign a task, then break the log and submit: the append fails, the
	// submit is rejected 503, and readiness goes unavailable.
	status, _, body := exchange(t, srv.URL, "GET", "/v1/assign?workerId=w1", "")
	var ar AssignResponse
	if status != http.StatusOK || json.Unmarshal(body, &ar) != nil || !ar.Assigned {
		t.Fatalf("assign: %d %s", status, body)
	}
	w.setBroken(true)
	submit := `{"workerId":"w1","taskId":` + strconv.Itoa(ar.TaskID) + `,"answer":"YES"}`
	if s, _, b := exchange(t, srv.URL, "POST", "/v1/submit", submit); s != http.StatusServiceUnavailable {
		t.Fatalf("submit with broken log: %d %s, want 503", s, b)
	}

	code, pr := probe(t, srv.URL, "/v1/readyz")
	if code != http.StatusServiceUnavailable || pr.Status != "unavailable" {
		t.Fatalf("readyz with broken log = %d %q, want 503 unavailable", code, pr.Status)
	}
	if _, ok := pr.Failed["event_log"]; !ok {
		t.Fatalf("readyz failed map %v, want event_log entry", pr.Failed)
	}
	if got := reg.Counter("icrowd_probe_unready_total", "").Value(); got != 1 {
		t.Errorf("icrowd_probe_unready_total = %d, want 1", got)
	}

	// Heal the log; the next successful append clears the sticky error.
	w.setBroken(false)
	if s, _, b := exchange(t, srv.URL, "POST", "/v1/submit", submit); s != http.StatusOK {
		t.Fatalf("submit after heal: %d %s", s, b)
	}
	if code, _ := probe(t, srv.URL, "/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after heal = %d, want 200", code)
	}
}

// TestReadyzFlipsOnStaleSweeper pins the lease_sweeper check against the
// injected clock: a sweeper started with a long interval is fresh right
// after its initial beat, and stale once the clock jumps past
// sweeperStaleFactor intervals without a sweep.
func TestReadyzFlipsOnStaleSweeper(t *testing.T) {
	srv, s, _ := newMetricsServer(t)
	now := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	s.SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	s.SetLease(4 * time.Hour)
	stop := s.StartSweeper(time.Hour) // ticker never fires during the test
	defer stop()

	if code, _ := probe(t, srv.URL, "/v1/readyz"); code != http.StatusOK {
		t.Fatalf("readyz right after StartSweeper = %d, want 200", code)
	}

	mu.Lock()
	now = now.Add(5 * time.Hour) // > sweeperStaleFactor (4) * 1h
	mu.Unlock()
	code, pr := probe(t, srv.URL, "/v1/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with stale sweeper = %d, want 503 (%+v)", code, pr)
	}
	if _, ok := pr.Failed["lease_sweeper"]; !ok {
		t.Fatalf("readyz failed map %v, want lease_sweeper entry", pr.Failed)
	}
}

// TestReadyzChecksListed pins that the server's built-in checks are always
// reported so operators can see what readiness covers.
func TestReadyzChecksListed(t *testing.T) {
	srv, _, _ := newMetricsServer(t)
	_, pr := probe(t, srv.URL, "/v1/readyz")
	want := map[string]bool{"event_log": false, "lease_sweeper": false}
	for _, c := range pr.Checks {
		if _, ok := want[c]; ok {
			want[c] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("readyz checks %v missing %q", pr.Checks, name)
		}
	}
}

// TestJSONLogSchemaAndRequestID is the log-schema pin: in JSON mode every
// in-request line carries ts, level, msg and a request_id equal to the
// response's X-Request-Id header.
func TestJSONLogSchemaAndRequestID(t *testing.T) {
	ds := task.ProductMatching()
	st, err := baseline.NewRandomMV(ds, 3, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(st, ds)
	reg := obsv.NewRegistry()
	s.UseRegistry(reg)
	var buf bytes.Buffer
	logger, err := obsv.NewLogger(obsv.LogOptions{
		W: &buf, Format: "json", Level: slog.LevelDebug, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogger(logger)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if rid == "" {
		t.Fatal("missing X-Request-Id header")
	}

	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{obsv.LogTimeKey, "level", "msg", obsv.LogRequestIDKey} {
		if _, ok := line[key]; !ok {
			t.Errorf("log line missing %q: %s", key, buf.String())
		}
	}
	if got := line["level"]; got != "debug" {
		t.Errorf("level = %v, want debug", got)
	}
	if got := line["msg"]; got != "http request" {
		t.Errorf("msg = %v, want \"http request\"", got)
	}
	if got, _ := line[obsv.LogRequestIDKey].(string); got != rid {
		t.Errorf("request_id = %v, want X-Request-Id %s", line[obsv.LogRequestIDKey], rid)
	}
	if got := line["endpoint"]; got != "status" {
		t.Errorf("endpoint = %v, want status", got)
	}
	if got := reg.Counter("icrowd_log_lines_total", "", "level", "debug").Value(); got != 1 {
		t.Errorf("icrowd_log_lines_total{level=debug} = %d, want 1", got)
	}
}

// TestSetLoggerNilSilences pins that SetLogger(nil) installs the no-op
// logger instead of panicking on the first request.
func TestSetLoggerNilSilences(t *testing.T) {
	srv, s, _ := newMetricsServer(t)
	s.SetLogger(nil)
	if status, _, _ := exchange(t, srv.URL, "GET", "/v1/status", ""); status != http.StatusOK {
		t.Fatalf("status with nil logger: %d", status)
	}
}
