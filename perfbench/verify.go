package main

import (
	"fmt"
	"math"
	"os"

	"tracemod/internal/livewire"
	"tracemod/internal/modulation"
)

// kernel holds the run's kernel socket drops (from /proc/net/udp).
type kernel struct{ relay, harness int64 }

// verify checks that every datagram the harness sent resolved exactly
// once — delivered, dropped by a trace's loss lottery, or lost without
// being chosen — and that the lottery dropped what the traces prescribe.
// Unchosen loss is the run's failed-operation count.
func (b *bench) verify(relay livewire.Stats, engine modulation.Stats, kd kernel) *result {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	sent := b.sent[0].Load() + b.sent[1].Load()
	arrived := b.arrived[0].Load() + b.arrived[1].Load()
	if n := b.corrupt.Load(); n > 0 {
		fail("%d datagrams arrived corrupted, resized or unknown", n)
	}
	if n := b.misrouted.Load(); n > 0 {
		fail("%d datagrams arrived through the wrong relay", n)
	}
	if n := b.dups.Load(); n > 0 {
		fail("%d datagrams arrived twice", n)
	}

	// The relays read, shaped and wrote everything they were given.
	if relay.SubmitPanics != 0 {
		fail("%d submit panics in the relays", relay.SubmitPanics)
	}
	if relay.ReadPackets != engine.Submitted {
		fail("relays read %d datagrams but the engines saw %d", relay.ReadPackets, engine.Submitted)
	}
	if wrote := relay.ClientToTarget + relay.TargetToClient + relay.SendErrors; wrote != engine.Submitted-engine.Dropped {
		fail("engines passed %d datagrams but the relays wrote %d", engine.Submitted-engine.Dropped, wrote)
	}
	for _, lk := range b.sys.links {
		if lk.session == nil {
			continue
		}
		st, es := lk.session.Stats(), lk.engine.Stats()
		if st.Rejected != 0 || st.Shed != 0 || st.InFlight != 0 || st.Submitted != es.Submitted ||
			st.Dropped != es.Dropped || st.Delivered != es.Submitted-es.Dropped {
			fail("session %s accounting %+v disagrees with its engine %+v", lk.session.ID, st, es)
		}
	}

	// Loss: what did not arrive was either chosen by a lottery or is
	// accounted for by the kernel (socket drops) or the relay (send
	// errors).
	unchosen := sent - arrived - engine.Dropped
	if unchosen < 0 {
		fail("%d more datagrams resolved than were sent", -unchosen)
	}
	if explained := kd.relay + kd.harness + relay.SendErrors; unchosen != explained {
		fail("%d datagrams lost without being chosen, but only %d kernel drops and send errors explain loss", unchosen, explained)
	}

	// The lottery: the drop count is a sum of independent Bernoulli
	// draws with the tuples' L, so it must fall within a few standard
	// deviations of its expectation.
	exp := b.expDrops[0] + b.expDrops[1]
	sd := math.Sqrt(b.varDrops[0] + b.varDrops[1])
	if math.Abs(float64(engine.Dropped)-exp) > 5*sd+1 {
		fail("lottery dropped %d datagrams, expected %.1f ± %.1f", engine.Dropped, exp, sd)
	}

	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if unchosen < 0 {
		unchosen = 0
	}
	errs := b.sendErrs.Load()
	return &result{
		Correct:   len(problems) == 0,
		Attempted: sent + errs,
		Failed:    unchosen + errs,
	}
}
