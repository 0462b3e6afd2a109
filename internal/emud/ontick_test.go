package emud

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/emud/wheel"
	"tracemod/internal/modulation"
	"tracemod/internal/obs/span"
	"tracemod/internal/replay"
	"tracemod/internal/simnet"
)

// TestDeliveriesFireOnTheirTick runs the emud timing configuration — an
// engine on a wheel.Timers handle, engine Tick = wheel Granularity =
// 10 ms — and requires every delayed delivery to be dispatched on the
// tick boundary the engine quantized it to, never a full tick late. The
// wheel's clock advances on every read, as a real clock does: a delivery
// armed as a relative delay would be re-based on the wheel's later
// reading, land just past its boundary, and be coalesced onto the next
// one.
func TestDeliveriesFireOnTheirTick(t *testing.T) {
	const tick = 10 * time.Millisecond
	epoch := time.Now()
	var last atomic.Int64
	w := wheel.New(wheel.Options{Shards: 2, Granularity: tick, Now: func() time.Duration {
		// Wall time since epoch, strictly increasing across reads.
		for {
			prev := last.Load()
			now := max(int64(time.Since(epoch)), prev+1)
			if last.CompareAndSwap(prev, now) {
				return time.Duration(now)
			}
		}
	}})
	defer w.Close()
	tm := w.Timers()
	defer tm.Stop()

	// 30 ms fixed latency plus 10 µs/B residual cost: the sizes below
	// spread the burst's deliveries across several tick boundaries.
	tr := replay.Constant(core.DelayParams{F: 30 * time.Millisecond, Vr: 10_000}, 0, time.Hour, time.Hour)
	sink := span.NewCollectorSink(64)
	spans := span.New(span.Config{Sample: 1, Sink: sink, Now: tm.Now})
	eng := modulation.NewEngine(tm, &modulation.SliceSource{Trace: tr}, modulation.Config{Tick: tick, Spans: spans})

	sizes := []int{100, 400, 900, 1300, 1800, 2200, 2900, 3400}
	fired := make([]time.Duration, len(sizes))
	var wg sync.WaitGroup
	wg.Add(len(sizes))
	for i, size := range sizes {
		i := i
		eng.Submit(simnet.Outbound, size, func() {
			fired[i] = tm.Now()
			wg.Done()
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deliveries never fired")
	}

	// The engine records each scheduled delivery's quantized target on
	// the packet span's wheel.wait child; the packet span's size
	// attribute ties it back to its submission.
	idx := map[int64]int{}
	for i, size := range sizes {
		idx[int64(size)] = i
	}
	packetOf := map[span.SpanID]int{}
	for _, d := range sink.Spans() {
		if d.Name == "modulation.packet" {
			packetOf[d.ID] = idx[spanAttr(d, "size")]
		}
	}
	targets := map[int]time.Duration{}
	for _, d := range sink.Spans() {
		if i, ok := packetOf[d.Parent]; ok && d.Name == "wheel.wait" {
			targets[i] = time.Duration(spanAttr(d, "target_ns"))
		}
	}
	if len(targets) != len(sizes) {
		t.Fatalf("engine scheduled %d deliveries, want %d (all delayed)", len(targets), len(sizes))
	}
	boundaries := map[time.Duration]bool{}
	for i, target := range targets {
		if target%tick != 0 {
			t.Fatalf("packet %d: target %v is off the %v grid", i, target, tick)
		}
		boundaries[target] = true
		if late := fired[i] - target; late < 0 || late >= tick {
			t.Errorf("packet %d: fired %v after its %v tick, want within [0, %v)", i, late, target, tick)
		}
	}
	if len(boundaries) < 3 {
		t.Fatalf("burst covered %d tick boundaries, want several", len(boundaries))
	}
}

// spanAttr returns a span's integer attribute (0 when absent).
func spanAttr(d *span.SpanData, key string) int64 {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return 0
}
