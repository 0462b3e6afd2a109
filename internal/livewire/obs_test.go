package livewire

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
)

func TestRelayLiveIntrospection(t *testing.T) {
	// The full daemon surface, as cmd/modulate wires it: a relay with
	// telemetry and fully sampled spans, its registry and span flight
	// recorder served by the debug listener, scraped over HTTP while
	// traffic flows — the acceptance path for `curl /metrics` and
	// `curl /debug/spans`.
	target := echoServer(t)
	reg := obs.NewRegistry()
	flight := span.NewFlightRecorder(span.DefaultFlightCapacity)
	r, err := NewRelay("127.0.0.1:0", target.String(), Config{
		Trace: constTrace(time.Millisecond, 0), Tick: -1, Seed: 1,
		Obs: reg, Spans: span.New(span.Config{Sample: 1, Sink: flight}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mux := obs.Mux(reg)
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, req *http.Request) {
		span.ServeFlight(w, req, "", flight)
	})
	srv, err := obs.StartDebugServer("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	c := dialRelay(t, r)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	for i := 0; i < 5; i++ {
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	// Scrape once the relay's own count of the last echo has landed.
	settledStats(r, 5, 5)

	out := string(get("/metrics"))
	for _, want := range []string{
		"tracemod_livewire_client_to_target_total 5",
		"tracemod_livewire_target_to_client_total 5",
		"tracemod_modulation_packets_submitted_total 10",
		"tracemod_modulation_packets_dropped_total 0",
		"tracemod_modulation_bottleneck_queue_depth",
		"tracemod_modulation_active_tuple_index",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}

	// Every datagram, both directions, roots a livewire.packet span that
	// ends after its socket write; wait (bounded) until all ten are in.
	var dump span.FlightDump
	deadline := time.Now().Add(3 * time.Second)
	for {
		dump = span.FlightDump{}
		if err := json.Unmarshal(get("/debug/spans"), &dump); err != nil {
			t.Fatal(err)
		}
		if countNamed(dump.Spans, "livewire.packet") >= 10 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if n := countNamed(dump.Spans, "livewire.packet"); n != 10 {
		t.Fatalf("/debug/spans holds %d livewire.packet spans, want 10 (5 pings, 5 echoes)", n)
	}
	if n := countNamed(dump.Spans, "modulation"); n != 10 {
		t.Fatalf("/debug/spans holds %d modulation spans, want 10", n)
	}
	if dump.Capacity != span.DefaultFlightCapacity || dump.Total < 20 {
		t.Fatalf("flight dump capacity %d total %d, want %d and >= 20", dump.Capacity, dump.Total, span.DefaultFlightCapacity)
	}
	// The engine stamps its events on the relay clock. With exact
	// scheduling every event falls inside the span it annotates; a span
	// clock of another epoch would shift them outside.
	for _, d := range dump.Spans {
		for _, ev := range d.Events {
			if ev.At < d.Start || ev.At > d.End {
				t.Fatalf("span %s event %s at %v outside [%v, %v]", d.Name, ev.Name, ev.At, d.Start, d.End)
			}
		}
	}
	tree := string(get("/debug/spans?format=tree"))
	for _, want := range []string{"livewire.packet", "modulation", "wheel.wait", "bneck-enter"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("/debug/spans?format=tree missing %q:\n%s", want, tree)
		}
	}
}

func countNamed(spans []*span.SpanData, name string) int {
	n := 0
	for _, d := range spans {
		if d.Name == name {
			n++
		}
	}
	return n
}
