package main

import (
	"math/rand"
	"testing"
	"time"

	"tracemod/internal/emud"
	"tracemod/internal/modulation"
	"tracemod/internal/sim"
	"tracemod/internal/simnet"
)

// TestModelMatchesEngine is the oracle for the benchmark's delay
// arithmetic. It replays each workload's generated traces and traffic —
// outbound at the load generator's schedule, each delivery echoed straight
// back inbound — through modulation.NewEngine on a virtual clock, and
// requires every delivery to happen exactly at the instant link.target
// predicts, from exactly link.prescribed, and the engine to run the tuple
// link.tupleAt names. delay_err, fire_late and the lottery check are
// measured against these functions, so they cannot drift from the
// engine's rules unnoticed.
func TestModelMatchesEngine(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, seed := range []int64{1, 2} {
				in, err := w.makeInputs(t.TempDir(), seed)
				if err != nil {
					t.Fatal(err)
				}
				store := emud.NewStore(emud.StoreOptions{})
				links := make([]*oracleLink, len(in.files))
				s := sim.New(seed)
				// Engines start at staggered, off-tick instants so the
				// model's epoch handling is exercised.
				for i, path := range in.files {
					tr, err := store.Load(path)
					if err != nil {
						t.Fatal(err)
					}
					epoch := time.Duration(i+1)*1234567*time.Nanosecond + 3*time.Millisecond
					links[i] = &oracleLink{model: newLink(tr, epoch, modulation.DefaultTick)}
					ol := links[i]
					s.At(sim.Time(epoch), func() {
						ol.eng = modulation.NewEngine(modulation.SimClock{S: s}, &modulation.SliceSource{Trace: tr, Loop: true},
							modulation.Config{RNG: rand.New(rand.NewSource(seed))})
					})
				}
				rate := w.rate
				if rate == 0 {
					rate = 20000 // relay-saturate: closed loop; any schedule will do
				}
				gap := time.Duration(float64(time.Second) / rate)
				start := time.Duration(len(links)+1) * 1234567 * time.Nanosecond * 3
				n := int64(rate * 6)
				var checked, delayed int
				for seq := int64(0); seq < n; seq++ {
					ol := links[seq%int64(len(links))]
					size := wireSize(in.sizes[seq%int64(len(in.sizes))])
					at := start + time.Duration(seq)*gap
					s.At(sim.Time(at), func() {
						ol.submit(t, s, simnet.Outbound, size, func() {
							ol.submit(t, s, simnet.Inbound, size, func() {}, &checked, &delayed)
						}, &checked, &delayed)
					})
				}
				// Looping engines re-arm their tuple timers forever; run
				// until every leg has had time to be delivered.
				s.RunUntil(sim.Time(start + time.Duration(n)*gap + time.Second))
				if checked < int(n) {
					t.Fatalf("seed %d: only %d deliveries checked for %d datagrams", seed, checked, n)
				}
				if w.emud && delayed < checked*9/10 {
					t.Fatalf("seed %d: %d of %d deliveries delayed; the workload should exercise the wheel", seed, delayed, checked)
				}
				if !w.emud && delayed != 0 {
					t.Fatalf("seed %d: %d deliveries delayed on a pass-through trace", seed, delayed)
				}
			}
		})
	}
}

type oracleLink struct {
	model *link
	eng   *modulation.Engine
}

// submit pushes one leg through the engine and checks its delivery
// instant against the model; then runs next.
func (ol *oracleLink) submit(t *testing.T, s *sim.Scheduler, dir simnet.Direction, size int, next func(), checked, delayed *int) {
	now := s.Now().Duration()
	want, isDelayed := ol.model.target(now, size)
	exact := now + ol.model.prescribed(now, size)
	if tu := ol.model.tupleAt(now); tu.Vb.Cost(size)+tu.F+tu.Vr.Cost(size) != exact-now {
		t.Fatalf("prescribed delay %v disagrees with tuple %v", exact-now, tu)
	}
	ol.eng.SubmitWithDrop(dir, size, func() {
		got := s.Now().Duration()
		if got != want {
			t.Fatalf("dir %d size %d submitted at %v: engine delivered at %v, model says %v (exact %v)",
				dir, size, now, got, want, exact)
		}
		*checked++
		if isDelayed {
			*delayed++
		}
		next()
	}, func() {})
	// The engine has advanced its tuple schedule to now: the model must
	// name the same tuple (its L drives the lottery check).
	if cur, _ := ol.eng.Current(); cur != ol.model.tupleAt(now) {
		t.Fatalf("at %v the engine runs tuple %v, the model says %v", now, cur, ol.model.tupleAt(now))
	}
}
