package telemetry

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a live-introspection HTTP endpoint: /metrics (the
// installed probe's registry in Prometheus text exposition format) and
// /debug/pprof/* (CPU/heap/goroutine profiling). It exists so a long
// -n 1000000 run is not a black box: attach with a browser, curl, or
// `go tool pprof` while the pipeline is executing.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the introspection server on addr (e.g. "127.0.0.1:6060"
// or ":0" for an ephemeral port) and returns immediately; the server
// runs until Close. The handlers are mounted on a private mux, not
// http.DefaultServeMux, so importing this package never changes the
// default mux of an embedding program.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", promHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:43231"), useful when the
// caller asked for an ephemeral port.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server immediately and releases the port, dropping
// any in-flight requests. No-op on nil. Prefer Shutdown at process
// exit.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// Shutdown gracefully stops the server: the listener closes at once
// (releasing the port), in-flight requests — a scrape mid-response, a
// pprof profile still streaming — run to completion or until ctx
// expires, whichever is first. On ctx expiry the remaining connections
// are force-closed and ctx.Err() is returned. No-op on nil.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close() //nolint:errcheck // best-effort after failed graceful stop
	}
	return err
}
