package wheel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tracemod/internal/obs"
)

func TestExactFires(t *testing.T) {
	w := New(Options{Shards: 2})
	defer w.Close()
	var fired atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		w.AfterFunc(time.Duration(i)*100*time.Microsecond, func() {
			fired.Add(1)
			wg.Done()
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d/100 timers fired", fired.Load())
	}
	if w.Pending() != 0 {
		t.Fatalf("pending = %d after all fired", w.Pending())
	}
}

func TestFiresNotEarly(t *testing.T) {
	w := New(Options{Shards: 1})
	defer w.Close()
	const d = 30 * time.Millisecond
	start := w.Now()
	ch := make(chan time.Duration, 1)
	w.AfterFunc(d, func() { ch <- w.Now() })
	select {
	case at := <-ch:
		if at-start < d {
			t.Fatalf("fired after %v, want >= %v", at-start, d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestGranularityCoalesces(t *testing.T) {
	// With a large granularity, a short timer still fires — on the next
	// boundary — and never early.
	w := New(Options{Shards: 1, Granularity: 20 * time.Millisecond})
	defer w.Close()
	start := w.Now()
	ch := make(chan time.Duration, 1)
	w.AfterFunc(5*time.Millisecond, func() { ch <- w.Now() })
	select {
	case at := <-ch:
		if at-start < 5*time.Millisecond {
			t.Fatalf("fired after %v, before its deadline", at-start)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("coalesced timer never fired")
	}
}

func TestZeroAndNegativeDelay(t *testing.T) {
	w := New(Options{Shards: 1})
	defer w.Close()
	ch := make(chan struct{}, 2)
	w.AfterFunc(0, func() { ch <- struct{}{} })
	w.AfterFunc(-time.Second, func() { ch <- struct{}{} })
	for i := 0; i < 2; i++ {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
			t.Fatal("immediate timer never fired")
		}
	}
}

func TestTimersStopSuppresses(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Options{Shards: 2, Metrics: reg})
	defer w.Close()
	tm := w.Timers()
	var fired atomic.Int64
	for i := 0; i < 50; i++ {
		tm.AfterFunc(20*time.Millisecond, func() { fired.Add(1) })
	}
	tm.Stop()
	if !tm.Stopped() {
		t.Fatal("Stopped() must report true after Stop")
	}
	time.Sleep(60 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d callbacks fired after Stop", n)
	}
	// AfterFunc on a stopped handle is a no-op.
	tm.AfterFunc(time.Millisecond, func() { fired.Add(1) })
	time.Sleep(20 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("stopped handle scheduled a callback (%d fired)", n)
	}
}

// TestStopIsBarrier asserts the teardown contract: once Stop returns, no
// callback of that handle is running or will run, even with fires racing
// the Stop.
func TestStopIsBarrier(t *testing.T) {
	w := New(Options{Shards: 4})
	defer w.Close()
	for round := 0; round < 50; round++ {
		tm := w.Timers()
		var stopped atomic.Bool
		var after atomic.Int64
		for i := 0; i < 20; i++ {
			tm.AfterFunc(time.Duration(i)*50*time.Microsecond, func() {
				if stopped.Load() {
					after.Add(1)
				}
			})
		}
		time.Sleep(300 * time.Microsecond) // let some fire mid-stop
		tm.Stop()
		stopped.Store(true)
		if n := after.Load(); n != 0 {
			t.Fatalf("round %d: %d callbacks observed post-Stop state", round, n)
		}
	}
}

func TestGoroutinesStayOShards(t *testing.T) {
	base := runtime.NumGoroutine()
	w := New(Options{Shards: 4, Granularity: DefaultGranularity})
	defer w.Close()
	var wg sync.WaitGroup
	const n = 20000
	wg.Add(n)
	for i := 0; i < n; i++ {
		w.AfterFunc(time.Duration(i%50)*time.Millisecond, wg.Done)
	}
	// With 20k timers in flight the process must not have grown by more
	// than the shard goroutines plus slack — the whole point of the wheel.
	if g := runtime.NumGoroutine(); g > base+4+16 {
		t.Fatalf("goroutines = %d with %d timers pending (base %d, 4 shards)", g, n, base)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timers did not drain")
	}
}

func TestCloseDiscardsAndAfterFuncNoops(t *testing.T) {
	w := New(Options{Shards: 1})
	var fired atomic.Int64
	w.AfterFunc(50*time.Millisecond, func() { fired.Add(1) })
	w.Close()
	w.Close() // idempotent
	w.AfterFunc(time.Millisecond, func() { fired.Add(1) })
	time.Sleep(80 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d callbacks fired after Close", n)
	}
}

func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Options{Shards: 2, Metrics: reg})
	defer w.Close()
	var wg sync.WaitGroup
	wg.Add(10)
	for i := 0; i < 10; i++ {
		w.AfterFunc(time.Millisecond, wg.Done)
	}
	tm := w.Timers()
	tm.AfterFunc(time.Millisecond, func() {})
	tm.Stop()
	wg.Wait()
	time.Sleep(20 * time.Millisecond)
	if w.scheduled.Load() != 11 {
		t.Fatalf("scheduled = %d, want 11", w.scheduled.Load())
	}
	if w.fired.Load() != 10 {
		t.Fatalf("fired = %d, want 10", w.fired.Load())
	}
	if w.suppressed.Load() != 1 {
		t.Fatalf("suppressed = %d, want 1", w.suppressed.Load())
	}
}

// fireAt arms fn at the absolute deadline at on w and returns the wheel
// time it fired at.
func fireAt(t *testing.T, w *Wheel, at time.Duration) time.Duration {
	t.Helper()
	ch := make(chan time.Duration, 1)
	w.AtFunc(at, func() { ch <- w.Now() })
	select {
	case got := <-ch:
		return got
	case <-time.After(2 * time.Second):
		t.Fatalf("AtFunc(%v) never fired", at)
		return 0
	}
}

func TestAtFuncOnBoundaryFiresOnIt(t *testing.T) {
	const g = 50 * time.Millisecond
	w := New(Options{Shards: 1, Granularity: g})
	defer w.Close()
	b := (w.Now()/g + 2) * g
	got := fireAt(t, w, b)
	if got < b {
		t.Fatalf("fired at %v, before its deadline %v", got, b)
	}
	if got >= b+g {
		t.Fatalf("fired at %v: an on-boundary deadline %v waited for the next boundary", got, b)
	}
}

func TestAtFuncOffBoundaryRoundsUp(t *testing.T) {
	const g = 50 * time.Millisecond
	w := New(Options{Shards: 1, Granularity: g})
	defer w.Close()
	b := (w.Now()/g + 2) * g
	if got := fireAt(t, w, b+g/5); got < b+g {
		t.Fatalf("fired at %v, want at the first boundary ≥ the deadline (%v)", got, b+g)
	}
}

func TestAtFuncPastDeadlineFiresNextPass(t *testing.T) {
	// With an hour-long granularity, any rounding would park the timer
	// for the rest of the test; a past deadline is due on the pass its
	// scheduling wakes.
	w := New(Options{Shards: 1, Granularity: time.Hour})
	defer w.Close()
	fireAt(t, w, w.Now()-time.Second)
}

func TestTimersStopSuppressesAtFunc(t *testing.T) {
	reg := obs.NewRegistry()
	w := New(Options{Shards: 2, Metrics: reg})
	defer w.Close()
	tm := w.Timers()
	var fired atomic.Int64
	at := w.Now() + 20*time.Millisecond
	for i := 0; i < 50; i++ {
		tm.AtFunc(at, func() { fired.Add(1) })
	}
	tm.Stop()
	tm.AtFunc(w.Now(), func() { fired.Add(1) }) // no-op on a stopped handle
	time.Sleep(60 * time.Millisecond)
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d AtFunc callbacks fired after Stop", n)
	}
	if s := w.suppressed.Load(); s != 50 {
		t.Fatalf("suppressed = %d, want 50", s)
	}
}
