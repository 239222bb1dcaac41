package platform

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"icrowd/internal/obsv"
)

// TestInstrumentHonorsInboundTraceContext is the satellite-1 regression
// pin: the middleware must continue a caller-supplied trace instead of
// always minting its own, and must echo a caller-supplied X-Request-Id
// verbatim so client- and router-originated IDs correlate.
func TestInstrumentHonorsInboundTraceContext(t *testing.T) {
	srv, _, _ := newMetricsServer(t)

	// Inbound traceparent: the request span joins that trace as a child.
	parentTrace := obsv.NewTraceID()
	req, _ := http.NewRequest("GET", srv.URL+"/v1/status", nil)
	req.Header.Set("traceparent", "00-"+parentTrace.String()+"-00000000000000ab-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != parentTrace.String() {
		t.Fatalf("X-Request-Id = %q, want the inbound trace ID %s", got, parentTrace)
	}
	status, _, body := exchange(t, srv.URL, "GET", "/v1/trace/"+parentTrace.String(), "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace/{id}: %d %s", status, body)
	}
	var tq TraceQueryResponse
	if err := json.Unmarshal(body, &tq); err != nil {
		t.Fatal(err)
	}
	if len(tq.Spans) != 1 || tq.Spans[0].ParentID != "00000000000000ab" {
		t.Fatalf("inbound parent not linked: %+v", tq.Spans)
	}

	// Inbound opaque X-Request-Id: echoed verbatim, stable trace mapping.
	var traces []string
	for i := 0; i < 2; i++ {
		req, _ = http.NewRequest("GET", srv.URL+"/v1/status", nil)
		req.Header.Set("X-Request-Id", "loadgen-77")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-Id"); got != "loadgen-77" {
			t.Fatalf("opaque X-Request-Id not echoed: %q", got)
		}
		_, _, body = exchange(t, srv.URL, "GET", "/v1/trace?n=1", "")
		var tr TraceResponse
		if err := json.Unmarshal(body, &tr); err != nil || len(tr.Spans) != 1 {
			t.Fatalf("trace tail: %s (%v)", body, err)
		}
		traces = append(traces, tr.Spans[0].TraceID)
	}
	if traces[0] != traces[1] {
		t.Fatalf("same X-Request-Id mapped to different traces: %v", traces)
	}
}

// TestTraceQueryBoundsAndFilter is the satellite-2 pin: ?n= is validated
// with a typed 400 at both ends, and ?name= narrows by span-name prefix.
func TestTraceQueryBoundsAndFilter(t *testing.T) {
	srv, _, _ := newMetricsServer(t)
	exchange(t, srv.URL, "GET", "/v1/status", "")
	exchange(t, srv.URL, "GET", "/v1/results", "")

	for _, q := range []string{"n=-1", "n=0", "n=abc", "n=" + strconv.Itoa(maxTraceQueryN+1)} {
		status, _, body := exchange(t, srv.URL, "GET", "/v1/trace?"+q, "")
		var er ErrorResponse
		if status != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Code != CodeBadRequest {
			t.Fatalf("GET /v1/trace?%s: %d %s, want typed 400", q, status, body)
		}
	}
	status, _, body := exchange(t, srv.URL, "GET", "/v1/trace?n="+strconv.Itoa(maxTraceQueryN), "")
	if status != http.StatusOK {
		t.Fatalf("n at the bound must be accepted: %d %s", status, body)
	}

	status, _, body = exchange(t, srv.URL, "GET", "/v1/trace?name=http.results", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace?name=: %d", status)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("name filter returned nothing")
	}
	for _, sp := range tr.Spans {
		if !strings.HasPrefix(sp.Name, "http.results") {
			t.Fatalf("name filter leaked %q", sp.Name)
		}
	}
}

// TestTraceByIDCollectsChildSpans drives a real submit against an
// event-log backend and asserts GET /v1/trace/{traceid} returns the request span
// plus its log.append and scheme.recompute children, all sharing the
// trace.
func TestTraceByIDCollectsChildSpans(t *testing.T) {
	srv, _, _ := newMetricsServer(t, WithBackend(&flakyBackend{}))

	status, _, body := exchange(t, srv.URL, "GET", "/v1/assign?workerId=w1", "")
	var ar AssignResponse
	if status != http.StatusOK || json.Unmarshal(body, &ar) != nil || !ar.Assigned {
		t.Fatalf("assign: %d %s", status, body)
	}
	submit := `{"workerId":"w1","taskId":` + strconv.Itoa(ar.TaskID) + `,"answer":"YES"}`
	req, _ := http.NewRequest("POST", srv.URL+"/v1/submit", strings.NewReader(submit))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if resp.StatusCode != http.StatusOK || rid == "" {
		t.Fatalf("submit: %d, X-Request-Id %q", resp.StatusCode, rid)
	}

	status, _, body = exchange(t, srv.URL, "GET", "/v1/trace/"+rid, "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: %d %s", rid, status, body)
	}
	var tq TraceQueryResponse
	if err := json.Unmarshal(body, &tq); err != nil {
		t.Fatal(err)
	}
	byName := map[string]obsv.SpanRecord{}
	for _, sp := range tq.Spans {
		if sp.TraceID != rid {
			t.Fatalf("span outside the trace: %+v", sp)
		}
		byName[sp.Name] = sp
	}
	root, ok := byName["http.submit"]
	if !ok || root.ParentID != "" {
		t.Fatalf("missing root http.submit span: %+v", tq.Spans)
	}
	for _, name := range []string{"log.append", "scheme.recompute"} {
		child, ok := byName[name]
		if !ok {
			t.Fatalf("missing %s child span: %+v", name, tq.Spans)
		}
		if child.ParentID != root.SpanID {
			t.Fatalf("%s not parented under http.submit: %+v", name, child)
		}
	}

	// Malformed and unknown IDs: typed 400 / empty 200 respectively.
	status, _, body = exchange(t, srv.URL, "GET", "/v1/trace/not-a-trace-id", "")
	var er ErrorResponse
	if status != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Code != CodeBadRequest {
		t.Fatalf("malformed trace id: %d %s", status, body)
	}
	unknown := obsv.NewTraceID().String()
	status, _, body = exchange(t, srv.URL, "GET", "/v1/trace/"+unknown, "")
	if status != http.StatusOK {
		t.Fatalf("unknown trace id: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &tq); err != nil || len(tq.Spans) != 0 {
		t.Fatalf("unknown trace must be an empty 200: %s", body)
	}
}

// TestClientInjectsTraceparent pins the client half of propagation: a
// caller holding an open span sees the server join its trace.
func TestClientInjectsTraceparent(t *testing.T) {
	srv, s, _ := newMetricsServer(t)
	callerTracer := obsv.NewTracer(4)
	callerSpan := callerTracer.Start("caller.op")
	ctx := obsv.ContextWithSpan(context.Background(), callerSpan)

	c := &Client{BaseURL: srv.URL}
	if _, err := c.Status(ctx); err != nil {
		t.Fatal(err)
	}
	spans := s.tracer.ByTrace(callerSpan.TraceID())
	if len(spans) != 1 || spans[0].Name != "http.status" {
		t.Fatalf("server did not join the caller's trace: %+v", spans)
	}
	if spans[0].ParentID != callerSpan.SpanID().String() {
		t.Fatalf("server span not a child of the caller's: %+v", spans[0])
	}
}
