package modulation

// Observability-driven tests: tick-quantization boundary behaviour and
// the packet lifecycle pinned through the engine's span events, engine
// metric registration, and drop-lottery determinism across equally seeded
// engines.

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// packetSpans is one packet's record: the engine-rooted
// "modulation.packet" span and, for a timer-scheduled delivery, its
// "wheel.wait" child (nil when the packet left at once).
type packetSpans struct {
	root, wait *span.SpanData
}

// tracedEngine builds an engine that roots a sampled span for every
// packet, timed by the simulator's clock, into the returned collector.
func tracedEngine(s *sim.Scheduler, tr core.Trace, cfg Config) (*Engine, *span.CollectorSink) {
	sink := span.NewCollectorSink(64)
	cfg.Spans = span.New(span.Config{Sample: 1, Sink: sink, Now: SimClock{S: s}.Now})
	return NewEngine(SimClock{S: s}, &SliceSource{Trace: tr}, cfg), sink
}

// onePacket picks the single packet's spans out of a collector.
func onePacket(t *testing.T, spans []*span.SpanData) packetSpans {
	t.Helper()
	var p packetSpans
	for _, d := range spans {
		switch d.Name {
		case "modulation.packet":
			if p.root != nil {
				t.Fatalf("more than one packet span in %d spans", len(spans))
			}
			p.root = d
		case "wheel.wait":
			p.wait = d
		}
	}
	if p.root == nil {
		t.Fatalf("no modulation.packet span in %d spans", len(spans))
	}
	if p.wait != nil && p.wait.Parent != p.root.ID {
		t.Fatalf("wheel.wait parent %v, want the packet span %v", p.wait.Parent, p.root.ID)
	}
	return p
}

// submitOnce runs a single packet with latency f through a fresh engine
// with a 10 ms tick, and returns its spans plus the virtual delivery time
// (-1 if never delivered).
func submitOnce(t *testing.T, f time.Duration) (packetSpans, time.Duration) {
	t.Helper()
	s := sim.New(1)
	e, sink := tracedEngine(s, constTrace(core.DelayParams{F: f}, 0), Config{Tick: 10 * time.Millisecond})
	deliveredAt := time.Duration(-1)
	e.Submit(simnet.Outbound, 100, func() { deliveredAt = s.Now().Duration() })
	s.RunUntil(sim.Time(time.Second))
	return onePacket(t, sink.Spans()), deliveredAt
}

// event returns the packet span's first event of the given name, failing
// if absent.
func (p packetSpans) event(t *testing.T, name string) span.Event {
	t.Helper()
	for _, ev := range p.root.Events {
		if ev.Name == name {
			return ev
		}
	}
	t.Fatalf("no %q event in %s", name, p.names())
	return span.Event{}
}

func (p packetSpans) has(name string) bool {
	for _, ev := range p.root.Events {
		if ev.Name == name {
			return true
		}
	}
	return false
}

// names lists the packet span's event names in record order.
func (p packetSpans) names() string {
	var names []string
	for _, ev := range p.root.Events {
		names = append(names, ev.Name)
	}
	return strings.Join(names, " ")
}

// attr returns a span's integer attribute, failing if absent.
func attr(t *testing.T, d *span.SpanData, key string) int64 {
	t.Helper()
	for _, a := range d.Attrs {
		if a.Key == key && !a.IsStr {
			return a.Val
		}
	}
	t.Fatalf("span %s has no %q attribute", d.Name, key)
	return 0
}

func TestQuantizationBelowHalfTickIsImmediate(t *testing.T) {
	// Delay strictly under half a tick (5 ms): delivered at once, no
	// quantization event, no scheduled wait.
	for _, f := range []time.Duration{time.Millisecond, 5*time.Millisecond - time.Nanosecond} {
		p, at := submitOnce(t, f)
		if at != 0 {
			t.Fatalf("F=%v: delivered at %v, want immediate (0)", f, at)
		}
		if p.has("quantize") {
			t.Fatalf("F=%v: unexpected quantize event for sub-half-tick delay", f)
		}
		if ev := p.event(t, "deliver-immediate"); ev.At != 0 || p.root.End != 0 {
			t.Fatalf("F=%v: immediate delivery at %v, span end %v, want 0", f, ev.At, p.root.End)
		}
		if p.wait != nil {
			t.Fatalf("F=%v: immediate delivery has a wheel.wait span", f)
		}
	}
}

func TestQuantizationAtExactlyHalfTickRoundsUp(t *testing.T) {
	// Exactly half a tick is NOT under half a tick: it is scheduled, and
	// rounds to the closest tick — 10 ms.
	p, at := submitOnce(t, 5*time.Millisecond)
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	if q := p.event(t, "quantize"); q.Val != int64(5*time.Millisecond) {
		t.Fatalf("quantize delta = %v, want +5ms", time.Duration(q.Val))
	}
	if p.has("deliver-immediate") || p.wait == nil {
		t.Fatalf("half-tick packet not scheduled: events %s", p.names())
	}
	if target := attr(t, p.wait, "target_ns"); target != int64(10*time.Millisecond) || p.wait.End != 10*time.Millisecond {
		t.Fatalf("wheel.wait target %v ended %v, want both 10ms", time.Duration(target), p.wait.End)
	}
}

func TestQuantizationJustAboveHalfTickRoundsToClosestTick(t *testing.T) {
	// 5ms+1ns rounds to 10 ms (closest tick), recording a just-under
	// +5ms rounding delta.
	p, at := submitOnce(t, 5*time.Millisecond+time.Nanosecond)
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	if q := p.event(t, "quantize"); q.Val != int64(5*time.Millisecond-time.Nanosecond) {
		t.Fatalf("quantize delta = %v, want 5ms-1ns", time.Duration(q.Val))
	}
}

func TestQuantizationRoundsDownPastTick(t *testing.T) {
	// 14 ms rounds down to 10 ms: the span records a negative delta.
	p, at := submitOnce(t, 14*time.Millisecond)
	if at != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", at)
	}
	if q := p.event(t, "quantize"); q.Val != int64(-4*time.Millisecond) {
		t.Fatalf("quantize delta = %v, want -4ms", time.Duration(q.Val))
	}
	if target := attr(t, p.wait, "target_ns"); target != int64(10*time.Millisecond) {
		t.Fatalf("wheel.wait target = %v, want 10ms", time.Duration(target))
	}
}

func TestLifecycleEventOrdering(t *testing.T) {
	// One delayed packet: the span opens at submit, records the cursor
	// lookup, bottleneck enter/exit, quantization and the timer it leads,
	// in that order, and closes — with its wheel.wait child — at delivery.
	p, at := submitOnce(t, 20*time.Millisecond)
	want := "cursor-fastpath bneck-enter bneck-exit quantize coalesce-lead"
	if got := p.names(); got != want {
		t.Fatalf("event order = %q, want %q", got, want)
	}
	if p.root.Start != 0 {
		t.Fatalf("packet span starts at %v, want the submit instant 0", p.root.Start)
	}
	// Tuple 1 is in force from engine construction.
	if tuple := attr(t, p.root, "tuple"); tuple != 1 {
		t.Fatalf("packet span tuple = %d, want 1", tuple)
	}
	if at != 20*time.Millisecond || p.wait == nil || p.wait.End != at || p.root.End != at {
		t.Fatalf("delivered at %v; wheel.wait %+v, packet span end %v: want all at 20ms", at, p.wait, p.root.End)
	}
	last := p.root.Events[len(p.root.Events)-1]
	if last.At > p.wait.End {
		t.Fatalf("event %q at %v after delivery at %v", last.Name, last.At, p.wait.End)
	}
}

func TestEngineMetricsExport(t *testing.T) {
	s := sim.New(1)
	reg := obs.NewRegistry()
	p := core.DelayParams{F: 20 * time.Millisecond, Vb: 1000}
	e := NewEngine(SimClock{S: s}, &SliceSource{Trace: constTrace(p, 0)}, Config{Metrics: reg})
	for i := 0; i < 5; i++ {
		e.Submit(simnet.Outbound, 1000, func() {})
	}
	// Mid-flight: all five packets occupy the bottleneck (1 ms each,
	// nothing has drained yet at virtual time 0).
	if d := reg.Gauge("tracemod_modulation_bottleneck_queue_depth", "").Load(); d != 5 {
		t.Fatalf("queue depth mid-flight = %d, want 5", d)
	}
	s.RunUntil(sim.Time(time.Second))
	out := reg.PrometheusString()
	for _, want := range []string{
		"tracemod_modulation_packets_submitted_total 5",
		"tracemod_modulation_packets_delivered_total 5",
		"tracemod_modulation_bottleneck_queue_depth 0",
		"tracemod_modulation_active_tuple_index",
		"tracemod_modulation_serialization_seconds_count 5",
		"tracemod_modulation_bottleneck_busy_seconds 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestDropsAttributedToTuple(t *testing.T) {
	// Tuple 1 is lossless, tuple 2 drops everything: the per-tuple drop
	// vector must attribute every loss to tuple ordinal 2.
	s := sim.New(1)
	reg := obs.NewRegistry()
	tr := core.Trace{
		{D: time.Second, DelayParams: core.DelayParams{F: time.Millisecond}, L: 0},
		{D: time.Hour, DelayParams: core.DelayParams{F: time.Millisecond}, L: 1},
	}
	e := NewEngine(SimClock{S: s}, &SliceSource{Trace: tr}, Config{Tick: -1, Metrics: reg})
	e.Submit(simnet.Outbound, 100, func() {})
	s.RunUntil(sim.Time(2 * time.Second)) // cross into tuple 2
	for i := 0; i < 3; i++ {
		e.Submit(simnet.Outbound, 100, func() {})
	}
	s.RunUntil(sim.Time(3 * time.Second))
	out := reg.PrometheusString()
	if !strings.Contains(out, `tracemod_modulation_drops_by_tuple_total{tuple="2"} 3`) {
		t.Fatalf("per-tuple drops missing:\n%s", out)
	}
	if strings.Contains(out, `tuple="1"`) {
		t.Fatalf("tuple 1 should have no drops:\n%s", out)
	}
}

func TestEqualSeedsGiveIdenticalDropSequences(t *testing.T) {
	// Satellite contract: two engines with equal seeds produce identical
	// drop sequences (and a different seed produces a different one).
	tr := constTrace(core.DelayParams{F: time.Millisecond}, 0.3)
	seq := func(seed int64) string {
		s := sim.New(1)
		e := NewEngine(SimClock{S: s}, &SliceSource{Trace: tr},
			Config{Tick: -1, RNG: rand.New(rand.NewSource(seed))})
		var b strings.Builder
		for i := 0; i < 300; i++ {
			delivered := false
			e.Submit(simnet.Outbound, 100, func() { delivered = true })
			s.Run()
			if delivered {
				b.WriteByte('.')
			} else {
				b.WriteByte('x')
			}
		}
		return b.String()
	}
	a, b2 := seq(7), seq(7)
	if a != b2 {
		t.Fatal("equal seeds must give identical drop sequences")
	}
	if !strings.Contains(a, "x") {
		t.Fatal("expected drops at 30% loss")
	}
	if seq(8) == a {
		t.Fatal("different seeds should give a different sequence")
	}
}

func TestCompensationEventCarriesAdjustment(t *testing.T) {
	s := sim.New(1)
	p := core.DelayParams{F: time.Millisecond, Vb: 1000}
	e, sink := tracedEngine(s, constTrace(p, 0), Config{Tick: -1, Compensation: 400})
	e.Submit(simnet.Inbound, 1000, func() {})
	s.RunUntil(sim.Time(100 * time.Millisecond))
	pkt := onePacket(t, sink.Spans())
	// Inbound Vb drops from 1000 to 600 ns/B over 1000 bytes: -400µs.
	if ev := pkt.event(t, "compensate"); ev.Val != int64(-400*time.Microsecond) {
		t.Fatalf("compensate adjust = %v, want -400µs", time.Duration(ev.Val))
	}
	if pkt.has("quantize") {
		t.Fatal("exact scheduling must not quantize")
	}
}
