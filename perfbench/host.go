package main

import (
	"bufio"
	"fmt"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint names the host a result was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"kernel":     kernel,
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// udpSocket is one row of /proc/net/udp.
type udpSocket struct {
	local, remote netip.AddrPort
	drops         int64
}

// udpSockets reads the kernel's IPv4 UDP socket table. The drops column
// counts datagrams the kernel discarded for that socket (receive buffer
// full): loss the emulator did not choose.
func udpSockets() ([]udpSocket, error) {
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []udpSocket
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 13 {
			continue
		}
		local, err1 := parseProcAddr(fs[1])
		remote, err2 := parseProcAddr(fs[2])
		drops, err3 := strconv.ParseInt(fs[len(fs)-1], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("/proc/net/udp: unparsable row %q", sc.Text())
		}
		out = append(out, udpSocket{local: local, remote: remote, drops: drops})
	}
	return out, sc.Err()
}

// parseProcAddr decodes "0100007F:1F90" (little-endian IPv4, hex port).
func parseProcAddr(s string) (netip.AddrPort, error) {
	h, p, ok := strings.Cut(s, ":")
	if !ok || len(h) != 8 {
		return netip.AddrPort{}, fmt.Errorf("bad address %q", s)
	}
	ip, err := strconv.ParseUint(h, 16, 32)
	if err != nil {
		return netip.AddrPort{}, err
	}
	port, err := strconv.ParseUint(p, 16, 16)
	if err != nil {
		return netip.AddrPort{}, err
	}
	a := netip.AddrFrom4([4]byte{byte(ip), byte(ip >> 8), byte(ip >> 16), byte(ip >> 24)})
	return netip.AddrPortFrom(a, uint16(port)), nil
}
