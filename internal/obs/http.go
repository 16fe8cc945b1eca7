package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the observability HTTP mux:
//
//	/metrics        Prometheus text exposition of reg
//	/progress       active progress tasks, JSON
//	/debug/pprof/*  the standard net/http/pprof pages
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			// The response is already partially written, so the only
			// place left to report a scrape failure is the registry
			// itself, where the next scrape will surface it.
			reg.Counter("obs_http_write_errors_total").Inc()
		}
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(ProgressPage{Tasks: Progress.Snapshots()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ProgressPage is the JSON document served at /progress: the active
// progress tasks.
type ProgressPage struct {
	Tasks []TaskSnapshot `json:"tasks"`
}

// Server is a running observability endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the observability endpoint on addr (e.g. ":9090" or
// "127.0.0.1:0" to let the kernel pick a port) serving reg.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg), ReadHeaderTimeout: 10 * time.Second}
	//lint:allow barego the observability endpoint outlives any one run and owns no simulation state; runctl cannot host it because runctl imports obs
	go func() { _ = srv.Serve(ln) }() //lint:allow goleak Server.Close closes the listener, which makes srv.Serve return; the join point is the Close call, not a channel the analyzer can see

	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address (with the resolved port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }
