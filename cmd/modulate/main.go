// Command modulate runs the modulation phase against real traffic: a
// transparent UDP relay that shapes live packets according to a replay
// trace, in wall-clock time. Point a UDP client at the relay and it will
// experience the recorded network.
//
// Usage:
//
//	modulate -replay porter0.replay -listen 127.0.0.1:7000 -target 127.0.0.1:7001
//	modulate -synthetic wavelan -listen 127.0.0.1:7000 -target 127.0.0.1:7001
//
// With -debug ADDR the daemon serves live introspection over HTTP:
// /metrics (Prometheus text; ?format=text for a human dump), /healthz,
// /debug/spans, and /debug/pprof/. With -trace-sample R (e.g. 0.01) the
// relay samples per-packet spans for roughly one datagram in 1/R and keeps
// the most recent in a flight recorder served as /debug/spans (JSON;
// ?format=tree for the span forest).
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"tracemod"
	"tracemod/internal/core"
	"tracemod/internal/livewire"
	"tracemod/internal/modulation"
	"tracemod/internal/obs"
	"tracemod/internal/obs/span"
	"tracemod/internal/replay"
)

func main() {
	replayPath := flag.String("replay", "", "replay trace file to drive shaping")
	synthetic := flag.String("synthetic", "", "synthetic trace instead of a file: wavelan, slow, step, impulse")
	listen := flag.String("listen", "127.0.0.1:7000", "client-facing UDP address")
	target := flag.String("target", "", "target server UDP address (required)")
	tick := flag.Duration("tick", modulation.DefaultTick, "scheduling granularity (negative = exact)")
	comp := flag.Float64("comp", 0, "inbound compensation in ns/byte (physical path Vb)")
	inExtra := flag.Float64("inbound-extra", 0, "extra inbound per-byte cost in ns/byte (emulates the paper's kernel artifact)")
	seed := flag.Int64("seed", 1, "drop-lottery seed")
	stats := flag.Duration("stats", 10*time.Second, "stats reporting period (0 = quiet)")
	debug := flag.String("debug", "", "HTTP debug listener address, e.g. 127.0.0.1:9100 (empty = disabled)")
	traceSample := flag.Float64("trace-sample", 0, "span sampling rate in [0,1] (0 disables tracing; 1 traces everything)")
	flag.Parse()

	if *target == "" {
		fmt.Fprintln(os.Stderr, "modulate: -target is required")
		os.Exit(1)
	}

	// Telemetry: one registry for the whole daemon, an optional sampled
	// span tracer feeding a flight recorder, and the debug listener
	// serving both.
	var reg *obs.Registry
	var spans *span.Tracer
	var flight *span.FlightRecorder
	if *debug != "" {
		reg = obs.NewRegistry()
		obs.Uptime(reg, time.Now())
		replay.EnableMetrics(reg)
		if *traceSample > 0 {
			flight = span.NewFlightRecorder(span.DefaultFlightCapacity)
			spans = span.New(span.Config{Sample: *traceSample, Sink: flight, Metrics: reg})
		}
	}

	var trace core.Trace
	var err error
	switch {
	case *replayPath != "" && *synthetic != "":
		fmt.Fprintln(os.Stderr, "modulate: -replay and -synthetic are mutually exclusive")
		os.Exit(1)
	case *replayPath != "":
		f, ferr := os.Open(*replayPath)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "modulate: %v\n", ferr)
			os.Exit(1)
		}
		trace, err = tracemod.ReadReplay(f)
		f.Close()
	case *synthetic != "":
		trace, err = tracemod.Synthetic(*synthetic, time.Hour)
	default:
		fmt.Fprintln(os.Stderr, "modulate: one of -replay or -synthetic is required")
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "modulate: %v\n", err)
		os.Exit(1)
	}

	cfg := livewire.Config{
		Trace:        trace,
		Tick:         *tick,
		InboundExtra: core.PerByte(*inExtra),
		Compensation: core.PerByte(*comp),
		Seed:         *seed,
		Obs:          reg,
		Spans:        spans,
	}
	relay, err := livewire.NewRelay(*listen, *target, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "modulate: %v\n", err)
		os.Exit(1)
	}
	defer relay.Close()
	fmt.Printf("shaping %s -> %s with %d tuples (%v, mean bottleneck %.2f Mb/s); ctrl-c to stop\n",
		relay.Addr(), *target, len(trace), trace.TotalDuration(), trace.MeanVb().BitsPerSec()/1e6)

	if reg != nil {
		mux := obs.Mux(reg)
		mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
			if flight == nil {
				http.Error(w, "span tracing disabled; run with -trace-sample R", http.StatusNotFound)
				return
			}
			span.ServeFlight(w, r, "", flight)
		})
		srv, err := obs.StartDebugServer(*debug, mux)
		if err != nil {
			fmt.Fprintf(os.Stderr, "modulate: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug listener on http://%s (/metrics /healthz /debug/spans /debug/pprof/)\n", srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	if *stats > 0 {
		tick := time.NewTicker(*stats)
		defer tick.Stop()
		for {
			select {
			case <-sig:
				fmt.Printf("final: %+v\n", relay.Stats())
				return
			case <-tick.C:
				fmt.Printf("%v %+v\n", time.Now().Format("15:04:05"), relay.Stats())
			}
		}
	}
	<-sig
	fmt.Printf("final: %+v\n", relay.Stats())
}
