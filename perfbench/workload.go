package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tracemod/internal/core"
	"tracemod/internal/packet"
	"tracemod/internal/replay"
	"tracemod/internal/tracefmt"
)

// workload is one traffic mix. Every input — trace files, payload sizes,
// link parameters — is generated from the run's seed; the program under
// test only ever sees the generated files and datagrams.
type workload struct {
	name string
	// links is the number of emulated links (relays).
	links int
	// emud runs each link as an emud session with a relay on one shared
	// Manager; otherwise the single link is a bare livewire.NewRelay.
	emud bool
	// window > 0 makes the load a closed loop keeping window datagrams in
	// flight; otherwise the load is an open loop at rate datagrams/s,
	// round-robin over the links.
	window int
	rate   float64
	// minSize..maxSize bounds the UDP payload sizes.
	minSize, maxSize int
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
}

var workloads = []workload{
	{
		// Per-packet relay cost with the timer wheel idle: 64 B datagrams
		// in a closed loop through a bare relay on a pass-through trace.
		name:      "relay-saturate",
		links:     1,
		window:    64,
		minSize:   64,
		maxSize:   64,
		setupReps: 21,
	},
	{
		// Delivery-time fidelity of the wheel and the tick: one emud
		// session, an open loop far below saturation, F = 20 ms.
		name:      "paced-delay",
		links:     1,
		emud:      true,
		rate:      2000,
		minSize:   64,
		maxSize:   1400,
		setupReps: 21,
	},
	{
		// Per-session set-up, state and timer overhead: 256 emud sessions
		// with their own traces, 48 datagrams/s each. Each session sees
		// about one datagram every two ticks, but the process as a whole
		// stays busy: at a third of this rate the process was idle most
		// of the time, and its per-packet CPU cost switched between two
		// levels about 20% apart from run to run.
		name:      "farm-fanout",
		links:     256,
		emud:      true,
		rate:      12288,
		minSize:   64,
		maxSize:   1400,
		setupReps: 9,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Collected-trace synthesis: the paper's ping workload sends triplets of
// ICMP echoes (one small, two large back to back); the distiller solves
// each complete triplet for F, Vb and Vr and estimates loss from the
// missing replies.
const (
	probeSmall = 60   // small probe IP size
	probeLarge = 1028 // large probe IP size
)

// linkTruth is the network a synthetic collected trace observes.
type linkTruth struct {
	params core.DelayParams
	// rtLoss is the round-trip reply loss; the distiller turns it into a
	// one-way L of about half that.
	rtLoss float64
}

// truthFor returns link i's generated network. Delay parameters are
// whole nanoseconds (per byte), so distillation recovers them exactly.
func (w workload) truthFor(rng *rand.Rand) linkTruth {
	switch w.name {
	case "paced-delay":
		// F = 20 ms and a per-byte Vr; Vb = 0 keeps the single link's
		// bottleneck queue empty under tick-aligned echo bursts.
		return linkTruth{
			params: core.DelayParams{F: 20 * time.Millisecond, Vr: core.PerByte(1500 + rng.Intn(1001))},
			rtLoss: 0.02,
		}
	default:
		// Per-session F and Vr. Vb = 0 here too: at 48 datagrams/s per
		// session an echo leg and a new send often reach the shared
		// bottleneck within Vb·size of each other, and the queueing that
		// follows would sometimes move a delivery to the next tick.
		return linkTruth{
			params: core.DelayParams{
				F:  time.Duration(10+rng.Intn(31)) * time.Millisecond,
				Vr: core.PerByte(500 + rng.Intn(3501)),
			},
			rtLoss: 0.02,
		}
	}
}

// collectedTrace synthesizes a ping collection over a constant network:
// perSec triplets a second for dur, each reply lost with probability
// truth.rtLoss.
func collectedTrace(rng *rand.Rand, truth linkTruth, dur time.Duration, perSec int) *tracefmt.Trace {
	tr := &tracefmt.Trace{Header: tracefmt.Header{Device: "bench0", Comment: "synthetic ping collection"}}
	seq := uint16(0)
	gap := time.Second / time.Duration(perSec)
	for at := time.Duration(0); at < dur; at += gap {
		base := int64(at)
		emit := func(size int, rtt time.Duration) {
			seq++
			tr.Packets = append(tr.Packets, tracefmt.PacketRecord{
				At: base, Dir: tracefmt.DirOut, Size: uint16(size),
				Protocol: packet.ProtoICMP, ICMPType: packet.ICMPEcho, ID: 1, Seq: seq, RTT: -1,
			})
			if rng.Float64() >= truth.rtLoss {
				tr.Packets = append(tr.Packets, tracefmt.PacketRecord{
					At: base + int64(rtt), Dir: tracefmt.DirIn, Size: uint16(size),
					Protocol: packet.ProtoICMP, ICMPType: packet.ICMPEchoReply, ID: 1, Seq: seq, RTT: int64(rtt),
				})
			}
		}
		p := truth.params
		t2 := p.RoundTrip(probeLarge)
		emit(probeSmall, p.RoundTrip(probeSmall))
		emit(probeLarge, t2)
		emit(probeLarge, t2+p.Vb.Cost(probeLarge))
	}
	sort.SliceStable(tr.Packets, func(i, j int) bool { return tr.Packets[i].At < tr.Packets[j].At })
	return tr
}

// passThrough is relay-saturate's trace: hours of one-second tuples with
// no delay and no loss, so every datagram takes the engine's immediate
// path.
func passThrough(tuples int) core.Trace {
	tr := make(core.Trace, tuples)
	for i := range tr {
		tr[i] = core.Tuple{D: time.Second}
	}
	return tr
}

// Input sizes. Collected traces stay under 65536 echoes (the ping
// sequence number is 16 bits).
const (
	passThroughTuples = 3600
	pacedTraceDur     = 300 * time.Second
	pacedPerSec       = 10
	farmTraceDur      = 60 * time.Second
	farmPerSec        = 5
)

// inputs are the generated files a run loads during set-up, plus the
// payload-size sequence its load generator cycles through.
type inputs struct {
	files []string // one trace file per link
	sizes []int
}

// makeInputs writes the workload's trace files under dir.
func (w workload) makeInputs(dir string, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < w.links; i++ {
		var path string
		var err error
		if w.emud {
			dur, perSec := pacedTraceDur, pacedPerSec
			if w.links > 1 {
				dur, perSec = farmTraceDur, farmPerSec
			}
			lrng := rand.New(rand.NewSource(rng.Int63()))
			tr := collectedTrace(lrng, w.truthFor(lrng), dur, perSec)
			path = filepath.Join(dir, fmt.Sprintf("link%03d.trace", i))
			err = writeFile(path, func(f *bufio.Writer) error { return tracefmt.WriteAll(f, tr) })
		} else {
			path = filepath.Join(dir, "passthrough.replay")
			err = writeFile(path, func(f *bufio.Writer) error { return replay.Write(f, passThrough(passThroughTuples)) })
		}
		if err != nil {
			return nil, err
		}
		in.files = append(in.files, path)
	}
	in.sizes = make([]int, 4096)
	for i := range in.sizes {
		in.sizes[i] = w.minSize + rng.Intn(w.maxSize-w.minSize+1)
	}
	return in, nil
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
