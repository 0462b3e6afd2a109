package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"tracemod/internal/emud"
	"tracemod/internal/livewire"
	"tracemod/internal/modulation"
)

// system is one set-up of the program under test: the relays, their
// engines or sessions, and what owns them.
type system struct {
	links []*sutLink
	group *livewire.PumpGroup // relay-saturate's pump group
	clock *livewire.RealClock // relay-saturate traced: the engine's clock
	mgr   *emud.Manager       // emud workloads

	// Set-up cost, split by layer: store loads (parse and distill) and
	// link creation (manager or pump group, sessions, relays).
	total, storeLoad, linkBuild time.Duration
}

// sutLink is one emulated link.
type sutLink struct {
	relay   *livewire.Relay
	engine  *modulation.Engine
	session *emud.Session // nil on relay-saturate
	model   *link
	addr    netip.AddrPort // the relay's client-facing address
	door    *door          // traced runs only
}

// setup builds the workload's system with every relay targeting echo.
// Traced runs interpose a timing door between each relay and its
// submitter, built with the same RelayOpts the untraced path uses.
func (b *bench) setup(echo string) (*system, error) {
	sys := &system{}
	start := time.Now()
	var err error
	if b.w.emud {
		err = b.setupFarm(sys, echo)
	} else {
		err = b.setupRelay(sys, echo)
	}
	sys.total = time.Since(start)
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// setupRelay is the cmd/modulate path: load the replay trace, then a bare
// relay on a pump group.
func (b *bench) setupRelay(sys *system, echo string) error {
	t0 := time.Now()
	store := emud.NewStore(emud.StoreOptions{})
	tr, err := store.Load(b.in.files[0])
	if err != nil {
		return fmt.Errorf("load trace: %w", err)
	}
	t1 := time.Now()
	sys.storeLoad = t1.Sub(t0)
	sys.group = livewire.NewPumpGroup(livewire.PumpGroupConfig{})
	// Pass-through: the prescribed delay is zero whatever the epoch.
	lk := &sutLink{model: newLink(tr, 0, modulation.DefaultTick)}
	if b.traced {
		sys.clock = livewire.NewRealClock()
		lk.engine = modulation.NewEngine(&timingClock{inner: sys.clock, late: b.lay.fireLate},
			&modulation.SliceSource{Trace: tr, Loop: true},
			modulation.Config{RNG: rand.New(rand.NewSource(b.seed))})
		lk.door = b.newDoor(0, b.hclock.Now, lk.model, lk.engine)
		lk.relay, err = livewire.NewRelayWithSubmitterOpts("127.0.0.1:0", echo, lk.door,
			livewire.RelayOpts{Group: sys.group})
	} else {
		lk.relay, err = livewire.NewRelay("127.0.0.1:0", echo, livewire.Config{
			Trace: tr, Seed: b.seed, Group: sys.group,
		})
		if err == nil {
			lk.engine = lk.relay.Engine()
		}
	}
	if err != nil {
		return fmt.Errorf("relay: %w", err)
	}
	lk.addr = lk.relay.Addr().AddrPort()
	sys.links = append(sys.links, lk)
	sys.linkBuild = time.Since(t1)
	return nil
}

// setupFarm builds a Manager on its defaults and one session per trace
// file, each with its own seed and relay.
func (b *bench) setupFarm(sys *system, echo string) error {
	t0 := time.Now()
	sys.mgr = emud.NewManager(emud.Options{})
	sys.linkBuild = time.Since(t0)
	for i, path := range b.in.files {
		l0 := time.Now()
		tr, err := sys.mgr.Store().Load(path)
		if err != nil {
			return fmt.Errorf("load trace: %w", err)
		}
		l1 := time.Now()
		sys.storeLoad += l1.Sub(l0)
		s, err := sys.mgr.Create(emud.SessionConfig{
			Name: fmt.Sprintf("link%03d", i), Trace: tr, TraceRef: path, Loop: true, Seed: b.seed + int64(i),
		})
		if err != nil {
			return err
		}
		epoch := sys.mgr.Wheel().Now()
		if err := s.Start(); err != nil {
			return err
		}
		lk := &sutLink{session: s, engine: s.Engine(), model: newLink(tr, epoch, modulation.DefaultTick)}
		sys.links = append(sys.links, lk)
		if b.traced {
			lk.door = b.newDoor(i, sys.mgr.Wheel().Now, lk.model, s)
			lk.relay, err = livewire.NewRelayWithSubmitterOpts("127.0.0.1:0", echo, lk.door,
				livewire.RelayOpts{Group: sys.mgr.Pumps()})
		} else {
			_, err = s.AttachRelay("127.0.0.1:0", echo)
			lk.relay = s.Relay()
		}
		if err != nil {
			return fmt.Errorf("relay: %w", err)
		}
		lk.addr = lk.relay.Addr().AddrPort()
		sys.linkBuild += time.Since(l1)
	}
	return nil
}

// close tears the system down: relays first, then their owners.
func (sys *system) close() {
	for _, lk := range sys.links {
		if lk.relay != nil && (lk.session == nil || lk.door != nil) {
			lk.relay.Close()
		}
	}
	if sys.mgr != nil {
		sys.mgr.Close()
	}
	sys.group.Close()
	if sys.clock != nil {
		sys.clock.Close()
	}
}
