package emud

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tracemod/internal/faults"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
	"tracemod/internal/simnet"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAPITraceparentEndToEnd sends a sampled W3C traceparent with a create
// request and asserts the control plane continues the caller's trace: the
// response header carries the same trace ID, and every server-side span
// (http.request, trace.resolve, session.create) lands in that trace with
// the handler span parented on the remote caller's span.
func TestAPITraceparentEndToEnd(t *testing.T) {
	sink := span.NewCollectorSink(0)
	tr := span.New(span.Config{Sample: 1, Sink: sink, Seed: 1})
	srv, _ := newTestAPI(t, Options{Spans: tr})

	remote := span.SpanContext{
		Trace:   span.TraceID{Hi: 0x1111, Lo: 0x2222},
		Span:    span.SpanID(0x3333),
		Sampled: true,
	}
	body := strings.NewReader(`{"synthetic": "wavelan"}`)
	req, err := http.NewRequest("POST", srv.URL+"/v1/sessions", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(span.TraceParentHeader, remote.TraceParent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create = %d: %s", resp.StatusCode, raw)
	}

	echoed, ok := span.ParseTraceParent(resp.Header.Get(span.TraceParentHeader))
	if !ok {
		t.Fatalf("response traceparent %q unparsable", resp.Header.Get(span.TraceParentHeader))
	}
	if echoed.Trace != remote.Trace || !echoed.Sampled {
		t.Fatalf("response continued trace %+v, want %v", echoed, remote.Trace)
	}

	spans := sink.Spans()
	byName := map[string]*span.SpanData{}
	for _, d := range spans {
		if d.Trace != remote.Trace {
			t.Fatalf("span %q escaped the remote trace: %v", d.Name, d.Trace)
		}
		byName[d.Name] = d
	}
	for _, name := range []string{"http.request", "trace.resolve", "session.create"} {
		if byName[name] == nil {
			t.Fatalf("no %q span recorded; got %d spans", name, len(spans))
		}
	}
	if byName["http.request"].Parent != remote.Span {
		t.Fatalf("handler span parent = %v, want the remote caller's %v",
			byName["http.request"].Parent, remote.Span)
	}
	if byName["session.create"].Parent != byName["http.request"].ID {
		t.Fatalf("session.create parent = %v, want handler %v",
			byName["session.create"].Parent, byName["http.request"].ID)
	}
}

// TestAPIFlightEndpoint drives packets through a fully-sampled session and
// reads them back from the flight recorder endpoint in both formats.
func TestAPIFlightEndpoint(t *testing.T) {
	tr := span.New(span.Config{Sample: 1, Seed: 2})
	srv, m := newTestAPI(t, Options{Spans: tr, FlightSpans: 64})

	var created SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{Synthetic: "wavelan"},
		http.StatusCreated, &created)
	s, ok := m.Get(created.ID)
	if !ok {
		t.Fatal("created session vanished")
	}
	for i := 0; i < 5; i++ {
		s.Submit(simnet.Outbound, 500, func() {})
	}
	waitFor(t, "deliveries", func() bool {
		st := s.Stats()
		return st.Delivered+st.Dropped >= 5
	})
	// Spans reach the flight recorder on End; wait for the roots too.
	waitFor(t, "flight spans", func() bool { return s.Flight().Total() >= 5 })

	var dump span.FlightDump
	doJSON(t, "GET", srv.URL+"/v1/sessions/"+created.ID+"/flight", nil, http.StatusOK, &dump)
	if dump.Session != created.ID || dump.Capacity != 64 {
		t.Fatalf("dump header = %+v", dump)
	}
	roots := 0
	ids := map[span.SpanID]bool{}
	for _, d := range dump.Spans {
		ids[d.ID] = true
	}
	for _, d := range dump.Spans {
		if d.Parent == 0 {
			roots++
			if d.Name != "session.packet" {
				t.Fatalf("root span %q, want session.packet", d.Name)
			}
		} else if !ids[d.Parent] {
			t.Fatalf("span %q has parent %v not in dump", d.Name, d.Parent)
		}
	}
	if roots == 0 {
		t.Fatalf("no roots among %d spans", len(dump.Spans))
	}

	// The same dump renders as a human tree.
	resp, err := http.Get(srv.URL + "/v1/sessions/" + created.ID + "/flight?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	tree, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(tree), "session.packet") {
		t.Fatalf("tree render = %d:\n%s", resp.StatusCode, tree)
	}

	doJSON(t, "GET", srv.URL+"/v1/sessions/s-999999/flight", nil, http.StatusNotFound, nil)
}

// Without a tracer there is no flight recorder: the endpoint says so
// instead of returning an empty dump that looks like a quiet session.
func TestAPIFlightDisabled(t *testing.T) {
	srv, _ := newTestAPI(t, Options{})
	var created SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{Synthetic: "wavelan"},
		http.StatusCreated, &created)
	doJSON(t, "GET", srv.URL+"/v1/sessions/"+created.ID+"/flight", nil, http.StatusNotFound, nil)
}

// TestAPISLOAndHealth reads the objective report and readiness verdict on
// a healthy farm, then quarantines its only session (injected callback
// panic) and asserts the critical quarantine-rate objective flips
// /v1/health to 503.
func TestAPISLOAndHealth(t *testing.T) {
	inj := faults.New(faults.Options{Seed: 42})
	srv, m := newTestAPI(t, Options{Faults: inj})

	var created SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{Synthetic: "wavelan"},
		http.StatusCreated, &created)

	var rep FarmSLOReport
	doJSON(t, "GET", srv.URL+"/v1/slo", nil, http.StatusOK, &rep)
	if len(rep.Objectives) != 7 {
		t.Fatalf("%d objectives in report: %+v", len(rep.Objectives), rep)
	}
	names := map[string]bool{}
	for _, o := range rep.Objectives {
		names[o.Name] = true
	}
	for _, want := range []string{
		"wheel-tick-lateness-p99", "delivery-deadline-compliance",
		"drop-accuracy", "quarantine-rate", "admission-shed-rate",
		"stream-distill-lag-p99", "ingest-brownout",
	} {
		if !names[want] {
			t.Fatalf("objective %q missing from %v", want, names)
		}
	}

	var h HealthInfo
	doJSON(t, "GET", srv.URL+"/v1/health", nil, http.StatusOK, &h)
	if !h.Ready || h.Sessions != 1 {
		t.Fatalf("healthy farm reported %+v", h)
	}

	// Panic the session's next delivery; 1 of 1 sessions quarantined takes
	// the critical quarantine-rate objective far below its 0.99 target.
	inj.Set("session.panic", faults.Config{Rate: 1})
	s, _ := m.Get(created.ID)
	s.Submit(simnet.Outbound, 100, func() {})
	waitFor(t, "quarantine", s.Quarantined)

	req, err := http.NewRequest("GET", srv.URL+"/v1/health", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("health after quarantine = %d: %s", resp.StatusCode, raw)
	}
}

// TestQuarantineFlightDumpWellParented is the acceptance check: when a
// traced session is quarantined by a panicking delivery callback, its
// flight dump still holds the packet's complete span tree — root
// session.packet, modulation child, wheel grandchild — correctly parented.
func TestQuarantineFlightDumpWellParented(t *testing.T) {
	inj := faults.New(faults.Options{Seed: 7})
	tr := span.New(span.Config{Sample: 1, Seed: 7})
	srv, m := newTestAPI(t, Options{Spans: tr, Faults: inj})
	inj.Set("session.panic", faults.Config{Rate: 1})

	var created SessionInfo
	doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{Synthetic: "wavelan"},
		http.StatusCreated, &created)
	s, _ := m.Get(created.ID)
	s.Submit(simnet.Outbound, 1000, func() {})
	waitFor(t, "quarantine", s.Quarantined)

	var dump span.FlightDump
	doJSON(t, "GET", srv.URL+"/v1/sessions/"+created.ID+"/flight", nil, http.StatusOK, &dump)
	if len(dump.Spans) == 0 {
		t.Fatal("quarantined session has an empty flight dump")
	}
	byID := map[span.SpanID]*span.SpanData{}
	trace := dump.Spans[0].Trace
	for _, d := range dump.Spans {
		if d.Trace != trace {
			t.Fatalf("span %q in foreign trace %v", d.Name, d.Trace)
		}
		byID[d.ID] = d
	}
	var root, mod *span.SpanData
	for _, d := range dump.Spans {
		switch d.Name {
		case "session.packet":
			root = d
		case "modulation":
			mod = d
		}
		if d.Parent != 0 && byID[d.Parent] == nil {
			t.Fatalf("span %q parent %v missing from dump", d.Name, d.Parent)
		}
	}
	if root == nil || root.Parent != 0 {
		t.Fatalf("no session.packet root in dump: %+v", dump.Spans)
	}
	if mod == nil || mod.Parent != root.ID {
		t.Fatalf("modulation span not parented on the root: %+v", mod)
	}
}

// TestFarmObservabilityScrape is the load-smoke scrape: a farm of traced
// sessions under traffic must serve /metrics, /v1/slo, /v1/health, and a
// flight dump — and the scrape must show zero dropped labels (bounded
// cardinality) with per-session series tracking live sessions only.
func TestFarmObservabilityScrape(t *testing.T) {
	const sessions = 40
	reg := obs.NewRegistry()
	tr := span.New(span.Config{Sample: 0.25, Metrics: reg, Seed: 9})
	// Coarse ticks keep the lateness SLO threshold (2 ticks) far above
	// race-detector scheduling noise: the test checks the surface's wiring,
	// not this machine's timer precision.
	srv, m := newTestAPI(t, Options{
		Metrics: reg, Spans: tr, MaxSessions: sessions + 1,
		Granularity: 50 * time.Millisecond,
	})

	ids := make([]string, 0, sessions)
	for i := 0; i < sessions; i++ {
		var created SessionInfo
		doJSON(t, "POST", srv.URL+"/v1/sessions", SessionRequest{
			Name: fmt.Sprintf("farm-%d", i), Synthetic: "wavelan",
		}, http.StatusCreated, &created)
		ids = append(ids, created.ID)
	}
	for _, id := range ids {
		s, _ := m.Get(id)
		for p := 0; p < 10; p++ {
			s.Submit(simnet.Outbound, 200, func() {})
		}
	}
	waitFor(t, "farm deliveries", func() bool {
		var resolved int64
		for _, s := range m.List() {
			st := s.Stats()
			resolved += st.Delivered + st.Dropped
		}
		return resolved >= sessions*10
	})

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body := string(scrape)
	if !strings.Contains(body, fmt.Sprintf("tracemod_emud_sessions_active %d", sessions)) {
		t.Fatalf("scrape missing active-session gauge for %d sessions", sessions)
	}
	// Bounded label growth: nothing hit a Vec cardinality cap, and the
	// per-session series count matches the live population.
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, obs.DroppedLabelsName+" "); ok && strings.TrimSpace(rest) != "0" {
			t.Fatalf("labels dropped under load: %s", line)
		}
	}
	if got := strings.Count(body, "tracemod_emud_session_state{"); got != sessions {
		t.Fatalf("%d session_state series for %d sessions", got, sessions)
	}

	var rep FarmSLOReport
	doJSON(t, "GET", srv.URL+"/v1/slo", nil, http.StatusOK, &rep)
	if rep.Score <= 0 {
		t.Fatalf("farm under load scored %v", rep.Score)
	}
	var h HealthInfo
	doJSON(t, "GET", srv.URL+"/v1/health", nil, http.StatusOK, &h)
	if !h.Ready || h.Sessions != sessions {
		t.Fatalf("health under load = %+v", h)
	}

	// At 25% sampling across 400 packets some session has flight data;
	// dump one to prove the endpoint works mid-load.
	dumped := false
	for _, id := range ids {
		s, _ := m.Get(id)
		if s.Flight().Total() == 0 {
			continue
		}
		var dump span.FlightDump
		doJSON(t, "GET", srv.URL+"/v1/sessions/"+id+"/flight", nil, http.StatusOK, &dump)
		if len(dump.Spans) == 0 {
			t.Fatalf("session %s reported %d flight spans but dumped none", id, s.Flight().Total())
		}
		dumped = true
		break
	}
	if !dumped {
		t.Fatal("no session collected flight spans at 25% sampling across 400 packets")
	}

	// Session deletion retires its per-session series: no label leak.
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/sessions/"+ids[0], nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if strings.Contains(string(scrape2), fmt.Sprintf("session=%q", ids[0])) {
		t.Fatalf("deleted session %s still exported", ids[0])
	}
}
