package main

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tracemod/internal/livewire"
)

// ringLen bounds the datagrams the harness tracks at once (per sequence
// number, modulo ringLen); every workload keeps far fewer in flight.
const ringLen = 1 << 16

// slot records one datagram's two legs: leg 0 client → relay → echo,
// leg 1 echo → relay → client. Times are on the run's clock.
type slot struct {
	seq   atomic.Int64
	link  atomic.Int32
	size  atomic.Int32
	sent  [2]atomic.Int64
	arr   [2]atomic.Int64
	door  [2]atomic.Int64 // traced: arrival at the relay's submit door
	fired [2]atomic.Int64 // traced: delivery callback
}

// bench is one run of one workload.
type bench struct {
	w      workload
	seed   int64
	traced bool
	in     *inputs

	hclock *livewire.RealClock // relay-saturate's harness clock
	now    func() time.Duration
	sys    *system
	lay    *layers

	client, echo *net.UDPConn
	// ring holds no pointers, so the collector never scans it; hooks
	// (traced runs only) parallels it.
	ring  []slot
	hooks [][2]fireHook
	// order[link][leg][k%orderLen] is the sequence number of the k-th
	// datagram sent to that link's relay on that leg (traced runs). The
	// entry is written before the send, since the relay may read it at
	// once; orderK[link][leg], owned by the goroutine sending that leg,
	// advances only when the send succeeded.
	order      [][2][]atomic.Int64
	orderK     [][2]int64
	targetPort []atomic.Int32 // each relay's echo-facing port, learned from traffic

	winStart, winEnd atomic.Int64
	stop             atomic.Bool

	sent, arrived [2]atomic.Int64
	sendErrs      atomic.Int64
	corrupt       atomic.Int64 // bad checksum, unknown sequence or wrong size
	misrouted     atomic.Int64 // arrived via another link's relay
	dups          atomic.Int64

	// delayErr[i] holds arrival − (send + prescribed delay), both legs,
	// for datagrams sent in the window's i-th second.
	delayErr []*hist
	genLate  *hist
	// Expected lottery drops (sum of L) and their variance, per leg; each
	// is written only by the goroutine that sends that leg.
	expDrops, varDrops [2]float64
}

func (b *bench) slotOf(seq int64) *slot { return &b.ring[seq%ringLen] }

func (b *bench) inWindow(sent time.Duration) bool {
	return int64(sent) >= b.winStart.Load() && int64(sent) < b.winEnd.Load()
}

func (b *bench) initRing() {
	b.ring = make([]slot, ringLen)
	b.winStart.Store(math.MaxInt64)
	b.winEnd.Store(math.MaxInt64)
	b.targetPort = make([]atomic.Int32, b.w.links)
	if b.traced {
		b.hooks = make([][2]fireHook, ringLen)
		for i := range b.hooks {
			for leg := range b.hooks[i] {
				h := &b.hooks[i][leg]
				h.b, h.s, h.leg = b, &b.ring[i], leg
				h.fn = h.run
			}
		}
		b.order = make([][2][]atomic.Int64, b.w.links)
		b.orderK = make([][2]int64, b.w.links)
		for i := range b.order {
			b.order[i] = [2][]atomic.Int64{make([]atomic.Int64, orderLen), make([]atomic.Int64, orderLen)}
		}
	}
}

// Payload layout: seq (8 bytes), link (4), CRC-32 of every other byte
// (4), then a fill pattern derived from seq.
const headerLen = 16

func fillPayload(p []byte, seq int64, lnk int) {
	binary.LittleEndian.PutUint64(p[0:8], uint64(seq))
	binary.LittleEndian.PutUint32(p[8:12], uint32(lnk))
	for i := headerLen; i < len(p); i++ {
		p[i] = byte(seq) ^ byte(i*7)
	}
	binary.LittleEndian.PutUint32(p[12:16], payloadCRC(p))
}

func payloadCRC(p []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(p[0:12]), crc32.IEEETable, p[headerLen:])
}

// check validates an arriving payload and returns its slot.
func (b *bench) check(p []byte) (*slot, int64, int, bool) {
	if len(p) < headerLen || binary.LittleEndian.Uint32(p[12:16]) != payloadCRC(p) {
		return nil, 0, 0, false
	}
	seq := int64(binary.LittleEndian.Uint64(p[0:8]))
	lnk := int(binary.LittleEndian.Uint32(p[8:12]))
	if seq < 0 || lnk >= b.w.links {
		return nil, 0, 0, false
	}
	s := b.slotOf(seq)
	if s.seq.Load() != seq || int(s.link.Load()) != lnk || int(s.size.Load()) != len(p) {
		return nil, 0, 0, false
	}
	return s, seq, lnk, true
}

// expect accumulates the lottery's expected drop count for one leg
// submitted at time at.
func (b *bench) expect(leg int, lk *link, at time.Duration) {
	l := lk.tupleAt(at).L
	b.expDrops[leg] += l
	b.varDrops[leg] += l * (1 - l)
}

// sendOut sends datagram seq from the client to its link's relay.
func (b *bench) sendOut(seq int64, buf []byte) bool {
	lnk := int(seq % int64(b.w.links))
	size := b.in.sizes[seq%int64(len(b.in.sizes))]
	s := b.slotOf(seq)
	s.seq.Store(-1)
	s.link.Store(int32(lnk))
	s.size.Store(int32(size))
	for leg := 0; leg < 2; leg++ {
		s.sent[leg].Store(0)
		s.arr[leg].Store(0)
		s.door[leg].Store(0)
		s.fired[leg].Store(0)
	}
	s.seq.Store(seq)
	p := buf[:size]
	fillPayload(p, seq, lnk)
	lk := b.sys.links[lnk]
	if b.traced {
		b.order[lnk][0][b.orderK[lnk][0]%orderLen].Store(seq)
	}
	t := b.now()
	s.sent[0].Store(int64(t))
	if _, err := b.client.WriteToUDPAddrPort(p, lk.addr); err != nil {
		b.sendErrs.Add(1)
		return false
	}
	if b.traced {
		b.orderK[lnk][0]++
	}
	b.expect(0, lk.model, t)
	b.sent[0].Add(1)
	return true
}

// arrive books one leg's arrival at time t; false means a duplicate.
func (b *bench) arrive(s *slot, leg, lnk int, t time.Duration) bool {
	if !s.arr[leg].CompareAndSwap(0, int64(t)) {
		b.dups.Add(1)
		return false
	}
	b.arrived[leg].Add(1)
	sent := time.Duration(s.sent[leg].Load())
	if b.inWindow(sent) {
		if i := int((sent - time.Duration(b.winStart.Load())) / time.Second); i < len(b.delayErr) {
			lk := b.sys.links[lnk].model
			b.delayErr[i].add(t - sent - lk.prescribed(sent, wireSize(int(s.size.Load()))))
		}
		if b.traced {
			if f := s.fired[leg].Load(); f != 0 {
				b.lay.egress.add(t - time.Duration(f))
			}
		}
	}
	return true
}

// echoLoop returns every datagram arriving at the echo socket to its
// sender (the relay), checking it on the way.
func (b *bench) echoLoop() {
	buf := make([]byte, 2048)
	for {
		n, from, err := b.echo.ReadFromUDPAddrPort(buf)
		if err != nil {
			if b.done(err) {
				return
			}
			continue
		}
		t := b.now()
		s, seq, lnk, ok := b.check(buf[:n])
		if !ok {
			b.corrupt.Add(1)
			continue
		}
		port := int32(from.Port())
		if !b.targetPort[lnk].CompareAndSwap(0, port) && b.targetPort[lnk].Load() != port {
			b.misrouted.Add(1)
			continue
		}
		if !b.arrive(s, 0, lnk, t) {
			continue
		}
		if b.traced {
			b.order[lnk][1][b.orderK[lnk][1]%orderLen].Store(seq)
		}
		t = b.now()
		s.sent[1].Store(int64(t))
		if _, err := b.echo.WriteToUDPAddrPort(buf[:n], from); err != nil {
			b.sendErrs.Add(1)
			continue
		}
		if b.traced {
			b.orderK[lnk][1]++
		}
		b.expect(1, b.sys.links[lnk].model, t)
		b.sent[1].Add(1)
	}
}

// receive reads one datagram at the client and books its return leg.
// It reports the arrival time, or ok=false when nothing valid arrived.
func (b *bench) receive(buf []byte) (t time.Duration, ok bool, err error) {
	n, from, err := b.client.ReadFromUDPAddrPort(buf)
	if err != nil {
		return 0, false, err
	}
	t = b.now()
	s, _, lnk, valid := b.check(buf[:n])
	if !valid {
		b.corrupt.Add(1)
		return t, false, nil
	}
	if from != b.sys.links[lnk].addr {
		b.misrouted.Add(1)
		return t, false, nil
	}
	return t, b.arrive(s, 1, lnk, t), nil
}

// clientLoop is the open loop's receiving side.
func (b *bench) clientLoop() {
	buf := make([]byte, 2048)
	for {
		if _, _, err := b.receive(buf); err != nil && b.done(err) {
			return
		}
	}
}

// pace is the open-loop generator's wake-up period: it sleeps at least
// this long and then sends every datagram that has come due, so a run
// does not spend most of its processor time waking the generator.
const pace = time.Millisecond

// openLoop sends at the workload's fixed rate, round-robin over the
// links, until stopped. Each datagram's lateness against its due time is
// the generator's own lateness.
func (b *bench) openLoop() {
	buf := make([]byte, 2048)
	gap := time.Duration(float64(time.Second) / b.w.rate)
	start := b.now()
	for seq := int64(0); !b.stop.Load(); {
		now := b.now()
		for ; start+time.Duration(seq)*gap <= now; seq++ {
			b.genLate.add(b.now() - (start + time.Duration(seq)*gap))
			b.sendOut(seq, buf)
		}
		wait := start + time.Duration(seq)*gap - b.now()
		if wait < pace {
			wait = pace
		}
		time.Sleep(wait)
	}
}

// closedLoop keeps the workload's window of datagrams in flight: each
// returning datagram releases the next. If nothing returns for
// stallAfter, the outstanding datagrams are given up for lost and the
// window is refilled.
func (b *bench) closedLoop() {
	const stallAfter = 250 * time.Millisecond
	out := make([]byte, 2048)
	in := make([]byte, 2048)
	seq := int64(0)
	fill := func() {
		for i := 0; i < b.w.window; i++ {
			b.sendOut(seq, out)
			seq++
		}
	}
	fill()
	for i := 0; ; i++ {
		if i%256 == 0 {
			_ = b.client.SetReadDeadline(time.Now().Add(stallAfter))
		}
		t, ok, err := b.receive(in)
		if err != nil {
			if b.done(err) {
				return
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				if !b.stop.Load() {
					fill()
				}
				i = -1 // re-arm the deadline
			}
			continue
		}
		if ok && !b.stop.Load() {
			b.genLate.add(b.now() - t)
			b.sendOut(seq, out)
			seq++
		}
	}
}

// done reports whether a read error means the harness socket was closed
// at the end of the run.
func (b *bench) done(err error) bool { return errors.Is(err, net.ErrClosed) }

// startTraffic starts the harness goroutines. The receivers (wg) run
// until the harness sockets close; the open-loop generator (gen) until
// b.stop is set.
func (b *bench) startTraffic(wg, gen *sync.WaitGroup) {
	wg.Add(2)
	go func() { defer wg.Done(); b.echoLoop() }()
	if b.w.window > 0 {
		go func() { defer wg.Done(); b.closedLoop() }()
		return
	}
	go func() { defer wg.Done(); b.clientLoop() }()
	gen.Add(1)
	go func() { defer gen.Done(); b.openLoop() }()
}

// listen opens one of the harness's two sockets.
func listen() (*net.UDPConn, error) {
	c, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort("127.0.0.1:0")))
	if err != nil {
		return nil, err
	}
	_ = c.SetReadBuffer(4 << 20) // best effort; the kernel caps it
	_ = c.SetWriteBuffer(4 << 20)
	return c, nil
}
