package main

import (
	"sync/atomic"
	"time"

	"tracemod/internal/livewire"
	"tracemod/internal/modulation"
	"tracemod/internal/simnet"
)

// layers holds the traced run's per-layer measurements. Every span is
// timed from the benchmark's side of a public call: the relay's submit
// door (livewire.BatchSubmitter), the engine's delivery callbacks, and
// the engine clock (modulation.Clock).
type layers struct {
	ingress  *hist // livewire.recv: harness send → relay's submit door
	egress   *hist // livewire.send: delivery callback → arrival at the socket
	fireLate *hist // emud.wheel: timer fire time − the instant it was due
	submitNs atomic.Int64
	submits  atomic.Int64
}

func newLayers() *layers {
	return &layers{ingress: newHist(), egress: newHist(), fireLate: newHist()}
}

// orderLen bounds how many datagrams of one link and direction may be
// between the harness's send and the relay's submit door at once.
const orderLen = 1024

// door is the timing BatchSubmitter the traced run puts between a relay
// and its engine or emud session. A relay reads each socket in order, so
// the k-th datagram it submits in a direction is the k-th the harness
// sent to it in that direction: the door recovers each datagram's
// sequence number from the harness's per-link send order. (A kernel drop
// at a relay socket would shift that matching; such a run already
// reports the drop as a failed operation.)
type door struct {
	b     *bench
	idx   int
	now   func() time.Duration
	model *link
	inner livewire.BatchSubmitter
	// k counts submissions per direction. Only the relay's pump calls
	// SubmitBatch, one burst at a time.
	k [2]int64
}

func (b *bench) newDoor(idx int, now func() time.Duration, model *link, inner livewire.BatchSubmitter) *door {
	return &door{b: b, idx: idx, now: now, model: model, inner: inner}
}

// SubmitWithDrop completes livewire.Submitter; the relay uses SubmitBatch
// whenever its submitter offers it.
func (d *door) SubmitWithDrop(dir simnet.Direction, size int, deliver, drop func()) {
	d.SubmitBatch([]modulation.Submission{{Dir: dir, Size: size, Deliver: deliver, Drop: drop}})
}

// SubmitBatch stamps each datagram's arrival at the door, hooks its
// delivery callback, and times the submitter.
func (d *door) SubmitBatch(subs []modulation.Submission) {
	b := d.b
	t := d.now()
	for i := range subs {
		leg := legOf(subs[i].Dir)
		k := d.k[leg]
		d.k[leg]++
		seq := b.order[d.idx][leg][k%orderLen].Load()
		s := b.slotOf(seq)
		if s.seq.Load() != seq {
			continue
		}
		s.door[leg].Store(int64(t))
		if sent := time.Duration(s.sent[leg].Load()); b.inWindow(sent) {
			b.lay.ingress.add(t - sent)
		}
		h := &b.hooks[seq%ringLen][leg]
		h.orig, h.now, h.model = subs[i].Deliver, d.now, d.model
		subs[i].Deliver = h.fn
	}
	d.inner.SubmitBatch(subs)
	b.lay.submitNs.Add(int64(d.now() - t))
	b.lay.submits.Add(int64(len(subs)))
}

// fireHook wraps one datagram's delivery callback. Hooks are allocated
// once, one per slot and leg, and rebound per datagram, so tracing adds
// no allocation per packet.
type fireHook struct {
	b     *bench
	s     *slot
	leg   int
	now   func() time.Duration
	model *link
	orig  func()
	fn    func() // h.run, bound once
}

func (h *fireHook) run() {
	b, s := h.b, h.s
	t := h.now()
	s.fired[h.leg].Store(int64(t))
	sent := time.Duration(s.sent[h.leg].Load())
	if due, delayed := h.model.target(time.Duration(s.door[h.leg].Load()), wireSize(int(s.size.Load()))); delayed && b.inWindow(sent) {
		b.lay.fireLate.add(t - due)
	}
	fn := h.orig
	h.orig = nil
	fn()
}

// timingClock wraps an engine clock and records how late each timer
// fires against its deadline. relay-saturate has no delayed deliveries,
// so its wheel lateness comes from the engine's tuple-advance timers.
type timingClock struct {
	inner modulation.Clock
	late  *hist
}

func (c *timingClock) Now() time.Duration { return c.inner.Now() }

func (c *timingClock) AfterFunc(d time.Duration, fn func()) {
	due := c.inner.Now() + d
	c.inner.AfterFunc(d, func() {
		c.late.add(c.inner.Now() - due)
		fn()
	})
}

func legOf(dir simnet.Direction) int {
	if dir == simnet.Outbound {
		return 0
	}
	return 1
}
