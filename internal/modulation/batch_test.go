package modulation

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// outcome records what happened to one packet: whether it was dropped and,
// if delivered, at what virtual instant.
type outcome struct {
	dropped bool
	at      time.Duration
}

func (o outcome) String() string {
	if o.dropped {
		return "drop"
	}
	return fmt.Sprintf("deliver@%v", o.at)
}

// burstPacket is one packet of the differential workload.
type burstPacket struct {
	dir  simnet.Direction
	size int
	gap  time.Duration // virtual time to advance before submitting
}

// mixedWorkload builds a deterministic packet mix: alternating directions,
// varied sizes, and occasional idle gaps so the burst crosses tuple
// boundaries and drains the bottleneck between clusters.
func mixedWorkload(n int) []burstPacket {
	rng := rand.New(rand.NewSource(7))
	pkts := make([]burstPacket, n)
	for i := range pkts {
		dir := simnet.Outbound
		if rng.Intn(2) == 1 {
			dir = simnet.Inbound
		}
		var gap time.Duration
		if rng.Intn(8) == 0 {
			gap = time.Duration(rng.Intn(40)) * time.Millisecond
		}
		pkts[i] = burstPacket{dir: dir, size: 40 + rng.Intn(1400), gap: gap}
	}
	return pkts
}

// afterOnly hides SimClock's AtFunc: an engine on it arms its timers
// through the Now/AfterFunc adapter a foreign Clock gets.
type afterOnly struct{ Clock }

// An arming route builds the engine's clock over a scheduler.
type route struct {
	name  string
	clock func(*sim.Scheduler) Clock
}

var routes = []route{
	{"native", func(s *sim.Scheduler) Clock { return SimClock{S: s} }},
	{"adapter", func(s *sim.Scheduler) Clock { return afterOnly{SimClock{S: s}} }},
}

// runSequential submits the workload one packet at a time through
// SubmitWithDrop, chunked so that each chunk shares one virtual instant
// (gaps advance the clock between chunks).
func runSequential(t *testing.T, r route, tr core.Trace, cfg Config, pkts []burstPacket) ([]outcome, Stats) {
	t.Helper()
	s := sim.New(1)
	cfg.RNG = rand.New(rand.NewSource(42))
	e := NewEngine(r.clock(s), &SliceSource{Trace: tr}, cfg)
	outs := make([]outcome, len(pkts))
	for i, p := range pkts {
		if p.gap > 0 {
			s.RunFor(p.gap)
		}
		i := i
		e.SubmitWithDrop(p.dir, p.size,
			func() { outs[i] = outcome{at: s.Now().Duration()} },
			func() { outs[i] = outcome{dropped: true} })
	}
	s.Run()
	return outs, e.Stats()
}

// runBatched submits the same workload through SubmitBatch, splitting at
// gap boundaries (a gap means the packets did not arrive in one burst)
// and additionally chunking bursts at the given size.
func runBatched(t *testing.T, r route, tr core.Trace, cfg Config, pkts []burstPacket, chunk int) ([]outcome, Stats) {
	t.Helper()
	s := sim.New(1)
	cfg.RNG = rand.New(rand.NewSource(42))
	e := NewEngine(r.clock(s), &SliceSource{Trace: tr}, cfg)
	outs := make([]outcome, len(pkts))
	var batch []Submission
	flush := func() {
		if len(batch) > 0 {
			e.SubmitBatch(batch)
			batch = nil
		}
	}
	for i, p := range pkts {
		if p.gap > 0 {
			flush()
			s.RunFor(p.gap)
		}
		i := i
		batch = append(batch, Submission{
			Dir:     p.dir,
			Size:    p.size,
			Deliver: func() { outs[i] = outcome{at: s.Now().Duration()} },
			Drop:    func() { outs[i] = outcome{dropped: true} },
		})
		if len(batch) >= chunk {
			flush()
		}
	}
	flush()
	s.Run()
	return outs, e.Stats()
}

// TestSubmitBatchMatchesSequential is the differential proof the issue
// asks for: for every packet of a mixed workload, SubmitBatch must yield
// the exact same outcome — same drop decisions (same RNG draw order),
// same delivery instants (same bottleneck serialization, quantization,
// and coalescing) — as N sequential SubmitWithDrop calls. Under the sim
// clock, packets of one burst share the sequential path's Now() reading,
// so the equivalence is exact, not approximate. Both timer-arming routes
// run — the clock's native AtFunc and the Now/AfterFunc adapter — and
// every combination must match native sequential submission.
func TestSubmitBatchMatchesSequential(t *testing.T) {
	if _, ok := Clock(afterOnly{}).(atClock); ok {
		t.Fatal("afterOnly must not expose AtFunc, or the adapter route goes untested")
	}
	configs := []struct {
		name string
		tr   core.Trace
		cfg  Config
	}{
		{"tick-lossy", constTrace(core.DelayParams{F: 20 * time.Millisecond, Vb: 2000, Vr: 500}, 0.2), Config{}},
		{"tick-lossless", constTrace(core.DelayParams{F: 5 * time.Millisecond, Vb: 1000, Vr: 0}, 0), Config{}},
		{"exact-lossy", constTrace(core.DelayParams{F: 3 * time.Millisecond, Vb: 500, Vr: 250}, 0.1), Config{Tick: -1}},
		{"compensated", constTrace(core.DelayParams{F: 10 * time.Millisecond, Vb: 3000, Vr: 0}, 0.05),
			Config{InboundExtra: 1500, Compensation: 800}},
		{"zero-cost", constTrace(core.DelayParams{}, 0), Config{}},
	}
	pkts := mixedWorkload(240)
	for _, tc := range configs {
		for _, chunk := range []int{1, 7, 32, 240} {
			t.Run(fmt.Sprintf("%s/chunk=%d", tc.name, chunk), func(t *testing.T) {
				want, wantStats := runSequential(t, routes[0], tc.tr, tc.cfg, pkts)
				for _, r := range routes {
					for _, mode := range []string{"sequential", "batched"} {
						var got []outcome
						var gotStats Stats
						if mode == "sequential" {
							got, gotStats = runSequential(t, r, tc.tr, tc.cfg, pkts)
						} else {
							got, gotStats = runBatched(t, r, tc.tr, tc.cfg, pkts, chunk)
						}
						for i := range want {
							if want[i] != got[i] {
								t.Fatalf("packet %d: native sequential %v, %s %s %v", i, want[i], r.name, mode, got[i])
							}
						}
						if wantStats != gotStats {
							t.Fatalf("stats diverge: native sequential %+v, %s %s %+v", wantStats, r.name, mode, gotStats)
						}
					}
				}
			})
		}
	}
}

// TestSubmitBatchEmpty ensures a zero-length burst is a no-op.
func TestSubmitBatchEmpty(t *testing.T) {
	s := sim.New(1)
	e := engine(s, constTrace(core.DelayParams{F: time.Millisecond}, 0), Config{})
	e.SubmitBatch(nil)
	e.SubmitBatch([]Submission{})
	if st := e.Stats(); st.Submitted != 0 {
		t.Fatalf("empty batch submitted packets: %+v", st)
	}
}
