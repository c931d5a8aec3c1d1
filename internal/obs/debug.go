package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugServer bundles the diagnostics endpoints the long-running
// commands (nvmbench, nvmserver) share: /metrics.json, the JSON document
// the snapshot function returns, built on each request, and
// /debug/pprof/. Callers mount extra endpoints (a Prometheus /metrics, a
// /trace flight-recorder dump) via StartDebug. The snapshot function must
// be safe to call while the instrumented system runs (histogram snapshots
// are).
type DebugServer struct {
	srv  *http.Server
	ln   net.Listener
	done chan struct{} // closed when Serve has returned
}

// Endpoint is one extra handler to mount on a DebugServer's mux.
type Endpoint struct {
	// Path is the mux pattern, e.g. "/trace".
	Path string
	// Handler serves it.
	Handler http.Handler
}

// StartDebug listens on addr and serves the diagnostics endpoints until
// Close. snapshot produces the /metrics.json document; extra endpoints
// are mounted as given.
func StartDebug(addr string, snapshot func() any, extra ...Endpoint) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	for _, e := range extra {
		mux.Handle(e.Path, e.Handler)
	}
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		buf, err := json.MarshalIndent(snapshot(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(buf, '\n'))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d := &DebugServer{srv: &http.Server{Handler: mux}, ln: ln, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() net.Addr { return d.ln.Addr() }

// Close stops the HTTP server and waits for it to return.
func (d *DebugServer) Close() error {
	err := d.srv.Close()
	<-d.done
	return err
}
