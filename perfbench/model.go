package main

import (
	"sort"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/packet"
)

// link is the benchmark's model of one emulated link: the replay trace a
// modulation engine runs, the engine clock's reading when the engine was
// built (its tuple schedule starts there and loops), and the delivery
// tick. It restates the engine's delivery rule so each datagram's
// prescribed delay and quantized delivery instant can be computed from
// outside; the oracle test in model_test.go holds it to the engine.
//
// The model assumes an empty bottleneck queue: every workload's traces
// have Vb = 0, and the oracle test fails if a workload breaks that.
type link struct {
	trace  core.Trace
	starts []time.Duration // starts[i] is tuple i's offset into one loop
	total  time.Duration
	epoch  time.Duration
	tick   time.Duration
}

func newLink(tr core.Trace, epoch, tick time.Duration) *link {
	l := &link{trace: tr, starts: make([]time.Duration, len(tr)), epoch: epoch, tick: tick}
	for i, t := range tr {
		l.starts[i] = l.total
		l.total += t.D
	}
	return l
}

// tupleAt returns the tuple in force at engine-clock time at.
func (l *link) tupleAt(at time.Duration) core.Tuple {
	off := at - l.epoch
	if off < 0 {
		off = 0
	}
	off %= l.total
	i := sort.Search(len(l.starts), func(i int) bool { return l.starts[i] > off }) - 1
	return l.trace[i]
}

// wireSize is the IP datagram size a relay charges for a UDP payload.
func wireSize(payload int) int { return payload + packet.IPv4HeaderLen + packet.UDPHeaderLen }

// prescribed is the trace's one-way delay for a datagram of wire size
// size submitted at engine-clock time at, before quantization:
// F + Vb·size + Vr·size, each per-byte term rounded as the engine rounds
// it.
func (l *link) prescribed(at time.Duration, size int) time.Duration {
	t := l.tupleAt(at)
	return t.Vb.Cost(size) + t.F + t.Vr.Cost(size)
}

// target returns the engine-clock instant at which the engine hands a
// datagram submitted at time at to its delivery callback: immediately
// when the prescribed delay is under half a tick, otherwise the exact
// target rounded to the closest tick. delayed reports which.
func (l *link) target(at time.Duration, size int) (when time.Duration, delayed bool) {
	exact := at + l.prescribed(at, size)
	if l.tick <= 0 {
		if exact <= at {
			return at, false
		}
		return exact, true
	}
	if exact-at < l.tick/2 {
		return at, false
	}
	q := (exact + l.tick/2) / l.tick * l.tick
	if q <= at {
		return at, false
	}
	return q, true
}
