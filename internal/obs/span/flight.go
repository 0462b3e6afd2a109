// The per-session flight recorder: a fixed-capacity, lock-free ring of
// the most recent finished spans. One recorder rides on every emud
// session (attached as the trace sink of each sampled packet root), so
// when a session is quarantined — or an operator asks via
// GET /v1/sessions/{id}/flight — the last moments before the incident are
// still on board, like an aircraft's FDR.
//
// The ring is lock-free on the write path: writers claim a slot with one
// atomic add and publish the span with one atomic pointer store. A reader
// racing a writer may observe a slot mid-replacement and see either the
// old or the new span — never a torn record, since slots hold pointers to
// immutable SpanData.
package span

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
)

// DefaultFlightCapacity bounds a flight recorder by default.
const DefaultFlightCapacity = 256

// FlightRecorder retains the last-N finished spans. A nil recorder is
// valid and drops everything. It implements Sink.
type FlightRecorder struct {
	slots []atomic.Pointer[SpanData]
	next  atomic.Uint64 // slots ever claimed; next%len is the write cursor
}

// NewFlightRecorder builds a recorder holding at most capacity spans
// (DefaultFlightCapacity if capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[SpanData], capacity)}
}

// Record implements Sink: claim the next slot, publish the span.
func (f *FlightRecorder) Record(d *SpanData) {
	if f == nil || d == nil {
		return
	}
	i := f.next.Add(1) - 1
	f.slots[i%uint64(len(f.slots))].Store(d)
}

// Total returns how many spans were ever recorded (including those since
// overwritten).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.next.Load()
}

// Capacity returns the ring size (0 for a nil recorder).
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Snapshot returns the retained spans, approximately oldest-first. Under
// concurrent writes the snapshot is a best-effort cut: each slot yields
// whichever span was published when it was read.
func (f *FlightRecorder) Snapshot() []*SpanData {
	if f == nil {
		return nil
	}
	n := f.next.Load()
	cap64 := uint64(len(f.slots))
	count := n
	if count > cap64 {
		count = cap64
	}
	out := make([]*SpanData, 0, count)
	// Oldest retained slot is n-count; walk forward to n-1.
	for i := n - count; i < n; i++ {
		if d := f.slots[i%cap64].Load(); d != nil {
			out = append(out, d)
		}
	}
	return out
}

// FlightDump is the JSON shape of a flight-recorder dump: the recorder's
// last-N sampled spans, oldest first. Session names the emud session the
// recorder rides on (empty for a standalone relay).
type FlightDump struct {
	Session  string      `json:"session,omitempty"`
	Capacity int         `json:"capacity"`
	Total    uint64      `json:"total"`
	Spans    []*SpanData `json:"spans"`
}

// ServeFlight answers an HTTP request with f's snapshot: a FlightDump in
// JSON by default (each span in its JSONL wire shape), or the
// human-readable span forest with ?format=tree.
func ServeFlight(w http.ResponseWriter, r *http.Request, session string, f *FlightRecorder) {
	spans := f.Snapshot()
	if r.URL.Query().Get("format") == "tree" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = RenderTree(w, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(FlightDump{Session: session, Capacity: f.Capacity(), Total: f.Total(), Spans: spans})
}
