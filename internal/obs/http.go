// The live-introspection surface: an HTTP debug listener serving the
// metric snapshot (/metrics, Prometheus text; /metrics?format=text, human
// dump), a liveness probe (/healthz), and the stdlib profiler
// (/debug/pprof/...).
package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Mux builds the debug mux for a registry. Callers may mount further
// debug routes on it before serving it.
func Mux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = reg.Dump(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// The stdlib profiler, mounted explicitly so nothing leaks onto
	// http.DefaultServeMux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running debug listener.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartDebugServer binds addr (use a ":0" port to pick a free one) and
// serves h — Mux(reg), possibly with extra routes — in a background
// goroutine.
func StartDebugServer(addr string, h http.Handler) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s := &DebugServer{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (host:port).
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener.
func (s *DebugServer) Close() error { return s.srv.Close() }
