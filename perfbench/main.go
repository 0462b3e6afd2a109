// Command perfbench is the repository's end-to-end benchmark. It drives
// the real livewire relay, modulation engine and emud session farm
// in-process over loopback UDP, checks that every datagram is accounted
// for, and prints every metric by name and unit. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paced-delay --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with timing wrappers around each layer and reports the
// per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"tracemod/internal/livewire"
	"tracemod/internal/modulation"
)

// warmup runs traffic before the measured window, so pools, caches and
// the tuple schedule are in their steady state when measuring starts.
const warmup = time.Second

// drainTimeout bounds the wait for in-flight datagrams after the load
// stops; anything still missing then is unchosen loss.
const drainTimeout = 3 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: relay-saturate, paced-delay or farm-fanout")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for generated inputs (removed afterwards)")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// counters is everything snapshotted at the edges of the measured window.
type counters struct {
	at       time.Duration
	cpu      time.Duration
	mem      runtime.MemStats
	arrived  int64
	relay    livewire.Stats
	engine   modulation.Stats
	submitNs int64
	submits  int64
}

func (b *bench) snapshot() counters {
	c := counters{at: b.now(), cpu: cpuTime()}
	runtime.ReadMemStats(&c.mem)
	c.arrived = b.arrived[0].Load() + b.arrived[1].Load()
	c.relay, c.engine = b.sys.relayStats(), b.sys.engineStats()
	c.submitNs, c.submits = b.lay.submitNs.Load(), b.lay.submits.Load()
	return c
}

func (sys *system) relayStats() livewire.Stats {
	var t livewire.Stats
	for _, lk := range sys.links {
		s := lk.relay.Stats()
		t.ClientToTarget += s.ClientToTarget
		t.TargetToClient += s.TargetToClient
		t.SubmitPanics += s.SubmitPanics
		t.SendErrors += s.SendErrors
		t.ReadPackets += s.ReadPackets
		t.Batches += s.Batches
		t.BatchedPackets += s.BatchedPackets
		t.FlushFull += s.FlushFull
		t.FlushBurst += s.FlushBurst
		t.DirectSends += s.DirectSends
	}
	return t
}

func (sys *system) engineStats() modulation.Stats {
	var t modulation.Stats
	for _, lk := range sys.links {
		s := lk.engine.Stats()
		t.Submitted += s.Submitted
		t.Dropped += s.Dropped
		t.Immediate += s.Immediate
		t.Delayed += s.Delayed
	}
	return t
}

// kernelDrops sums /proc/net/udp drops over the relays' sockets and over
// the harness's two sockets.
func (b *bench) kernelDrops() (relay, harness int64, err error) {
	socks, err := udpSockets()
	if err != nil {
		return 0, 0, err
	}
	clientAP, echoAP := b.client.LocalAddr().(*net.UDPAddr).AddrPort(), b.echo.LocalAddr().(*net.UDPAddr).AddrPort()
	relayPorts := map[uint16]bool{}
	for _, lk := range b.sys.links {
		relayPorts[lk.addr.Port()] = true
	}
	for _, s := range socks {
		switch {
		case s.local == clientAP || s.local == echoAP:
			harness += s.drops
		case s.remote == echoAP || (s.local.Addr() == clientAP.Addr() && relayPorts[s.local.Port()]):
			relay += s.drops
		}
	}
	return relay, harness, nil
}

func run(w workload, seed int64, window time.Duration, traced bool, work string) (*result, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "inputs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := w.makeInputs(dir, seed)
	if err != nil {
		return nil, err
	}

	b := &bench{w: w, seed: seed, traced: traced, in: in, lay: newLayers(), genLate: newHist()}
	for i := time.Duration(0); i < window/time.Second; i++ {
		b.delayErr = append(b.delayErr, newHist())
	}
	b.initRing()
	if b.client, err = listen(); err != nil {
		return nil, err
	}
	defer b.client.Close()
	if b.echo, err = listen(); err != nil {
		return nil, err
	}
	defer b.echo.Close()
	if !w.emud {
		b.hclock = livewire.NewRealClock()
		defer b.hclock.Close()
	}

	// Set-up runs setupReps times and setup_s is the median. Each
	// repetition starts from a collected heap, as a fresh process would,
	// rather than paying for the garbage of the one before. The
	// repetitions are split around the measured window, so the median
	// samples the host at both ends of the run; the last one before the
	// window is the system measured. mem_mb is the median growth of the
	// live heap across a set-up.
	echoAddr := b.echo.LocalAddr().String()
	var setups, loads, links, held []float64
	setup := func(keep bool) error {
		base := liveHeap()
		sys, err := b.setup(echoAddr)
		if err != nil {
			return err
		}
		held = append(held, float64(liveHeap()-base))
		setups = append(setups, sys.total.Seconds())
		loads = append(loads, ms(sys.storeLoad))
		links = append(links, ms(sys.linkBuild)/float64(len(sys.links)))
		if keep {
			b.sys = sys
		} else {
			sys.close()
		}
		return nil
	}
	before := (w.setupReps + 1) / 2
	for r := 0; r < before; r++ {
		if err := setup(r == before-1); err != nil {
			return nil, err
		}
	}
	defer b.sys.close()
	settled := liveHeap()
	if b.sys.mgr != nil {
		b.now = b.sys.mgr.Wheel().Now
	} else {
		b.now = b.hclock.Now
	}

	relayDrops0, harnessDrops0, err := b.kernelDrops()
	if err != nil {
		return nil, err
	}
	var wg, gen sync.WaitGroup
	b.startTraffic(&wg, &gen)
	time.Sleep(warmup)
	b.winStart.Store(int64(b.now()))
	c0 := b.snapshot()
	// The window is measured in one-second slices; throughput, CPU cost
	// and the delay quantiles are medians over slices, so a second in
	// which another tenant of the host took the processors does not set
	// the result.
	var pps, cpu []float64
	prev := c0
	for i := time.Duration(0); i < window/time.Second; i++ {
		time.Sleep(time.Second)
		cur := counters{at: b.now(), cpu: cpuTime(), arrived: b.arrived[0].Load() + b.arrived[1].Load()}
		if n := float64(cur.arrived - prev.arrived); n > 0 {
			pps = append(pps, n/(cur.at-prev.at).Seconds())
			cpu = append(cpu, us(cur.cpu-prev.cpu)/n)
		}
		prev = cur
	}
	b.winEnd.Store(int64(b.now()))
	c1 := b.snapshot()
	b.stop.Store(true)
	gen.Wait()
	b.drain()
	relay, engine := b.sys.relayStats(), b.sys.engineStats()
	relayDrops1, harnessDrops1, err := b.kernelDrops()
	if err != nil {
		return nil, err
	}
	end := liveHeap()
	b.client.Close()
	b.echo.Close()
	wg.Wait()

	kd := kernel{relay: relayDrops1 - relayDrops0, harness: harnessDrops1 - harnessDrops0}
	res := b.verify(relay, engine, kd)
	b.sys.close()
	for r := before; r < w.setupReps; r++ {
		if err := setup(false); err != nil {
			return nil, err
		}
	}
	// An open loop that fell behind its schedule did not offer the load
	// the workload defines. Brief stalls of the whole process (both Ps
	// held in blocking syscalls until the runtime's monitor retakes them)
	// delay a few percent of sends by up to about a tick; they hit the
	// emulator's own timers too and show in delay_err_p99_ms. A run is
	// invalid when a tenth of the sends were more than a tick late.
	if w.window == 0 {
		if late := b.genLate.quantile(0.90); late > modulation.DefaultTick {
			return nil, fmt.Errorf("invalid run: a tenth of the sends left more than %v late (p90 %v)", modulation.DefaultTick, late)
		}
	}

	delivered := float64(c1.arrived - c0.arrived)
	span := (c1.at - c0.at).Seconds()
	var samples int64
	var p50s, p99s []float64
	for _, h := range b.delayErr {
		if h.count() > 0 {
			samples += h.count()
			p50s = append(p50s, ms(h.quantile(0.50)))
			p99s = append(p99s, ms(h.quantile(0.99)))
		}
	}
	fmt.Printf("# host %s\n", mustJSON(fingerprint()))
	fmt.Printf("# %s seed=%d traced=%v window=%.3fs delivered=%.0f delay_err_samples=%d lottery_drops=%d expected=%.1f kernel_drops=%d/%d setup_reps=%d\n",
		w.name, seed, traced, span, delivered, samples, engine.Dropped,
		b.expDrops[0]+b.expDrops[1], kd.relay, kd.harness, w.setupReps)
	if delivered == 0 {
		return nil, fmt.Errorf("no datagram arrived in the measured window")
	}
	fmt.Fprintf(os.Stderr, "# slices pps=%.6g cpu_us=%.4g\n", pps, cpu)
	cpuPerPkt, ppsMed := median(cpu), median(pps)
	if !traced {
		res.Metrics = map[string]metric{
			"delivered_pps":    {ppsMed, "1/s"},
			"delay_err_p50_ms": {median(p50s), "ms"},
			"delay_err_p99_ms": {median(p99s), "ms"},
			"cpu_us_per_pkt":   {cpuPerPkt, "us"},
			"setup_s":          {median(setups), "s"},
			"mem_mb":           {median(held) / 1e6, "MB"},
		}
		return res, nil
	}
	fmt.Printf("# traced samples: ingress=%d egress=%d fire_late=%d gen_late=%d\n",
		b.lay.ingress.count(), b.lay.egress.count(), b.lay.fireLate.count(), b.genLate.count())
	dr, de := diffRelay(c1.relay, c0.relay), diffEngine(c1.engine, c0.engine)
	sent := float64(dr.ClientToTarget + dr.TargetToClient)
	res.Metrics = map[string]metric{
		"livewire.recv.ingress_us_p50": {us(b.lay.ingress.quantile(0.50)), "us"},
		"livewire.recv.ingress_us_p99": {us(b.lay.ingress.quantile(0.99)), "us"},
		"livewire.recv.batch_pkts":     {ratio(dr.BatchedPackets, dr.Batches), "pkts"},
		"submit.ns_per_pkt":            {ratio(c1.submitNs-c0.submitNs, c1.submits-c0.submits), "ns"},
		"modulation.immediate_frac":    {ratio(de.Immediate, de.Immediate+de.Delayed), "ratio"},
		"emud.wheel.fire_late_ms_p50":  {ms(b.lay.fireLate.quantile(0.50)), "ms"},
		"emud.wheel.fire_late_ms_p99":  {ms(b.lay.fireLate.quantile(0.99)), "ms"},
		"livewire.send.egress_us_p50":  {us(b.lay.egress.quantile(0.50)), "us"},
		"livewire.send.egress_us_p99":  {us(b.lay.egress.quantile(0.99)), "us"},
		"livewire.send.direct_frac":    {float64(dr.DirectSends) / math.Max(sent, 1), "ratio"},
		"livewire.send.batch_pkts":     {ratio(dr.ClientToTarget+dr.TargetToClient+dr.SendErrors, dr.FlushFull+dr.FlushBurst+dr.DirectSends), "pkts"},
		"alloc.allocs_per_pkt":         {float64(c1.mem.Mallocs-c0.mem.Mallocs) / delivered, "count"},
		"alloc.bytes_per_pkt":          {float64(c1.mem.TotalAlloc-c0.mem.TotalAlloc) / delivered, "B"},
		"emud.store.load_ms":           {median(loads), "ms"},
		"setup.link_ms":                {median(links), "ms"},
		"livewire.kernel_drops":        {float64(kd.relay), "count"},
		"harness.kernel_drops":         {float64(kd.harness), "count"},
		"harness.gen_late_ms_p99":      {ms(b.genLate.quantile(0.99)), "ms"},
		"mem.traffic_mb":               {float64(end-settled) / 1e6, "MB"},
		"trace.cpu_us_per_pkt":         {cpuPerPkt, "us"},
		"trace.delivered_pps":          {ppsMed, "1/s"},
	}
	return res, nil
}

// drain waits until every datagram sent is either back or dropped by a
// lottery, holding for two consecutive polls, or until drainTimeout.
func (b *bench) drain() {
	deadline := time.Now().Add(drainTimeout)
	stable := 0
	for time.Now().Before(deadline) && stable < 2 {
		time.Sleep(20 * time.Millisecond)
		sent := b.sent[0].Load() + b.sent[1].Load()
		resolved := b.arrived[0].Load() + b.arrived[1].Load() + b.sys.engineStats().Dropped
		if sent == resolved {
			stable++
		} else {
			stable = 0
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection. Two cycles also empty the sync.Pool caches.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func diffRelay(a, b livewire.Stats) livewire.Stats {
	return livewire.Stats{
		ClientToTarget: a.ClientToTarget - b.ClientToTarget,
		TargetToClient: a.TargetToClient - b.TargetToClient,
		SendErrors:     a.SendErrors - b.SendErrors,
		Batches:        a.Batches - b.Batches,
		BatchedPackets: a.BatchedPackets - b.BatchedPackets,
		FlushFull:      a.FlushFull - b.FlushFull,
		FlushBurst:     a.FlushBurst - b.FlushBurst,
		DirectSends:    a.DirectSends - b.DirectSends,
	}
}

func diffEngine(a, b modulation.Stats) modulation.Stats {
	return modulation.Stats{Immediate: a.Immediate - b.Immediate, Delayed: a.Delayed - b.Delayed}
}

func mustJSON(v any) string {
	out, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return strings.TrimSpace(string(out))
}
