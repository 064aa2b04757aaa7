package obs

import (
	"log"
	"net/http"
	"runtime/debug"
	"time"
)

// statusWriter captures the response code a handler wrote (200 when the
// handler never calls WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Middleware instruments an HTTP handler with the registry's
// standard families, labeled by route:
//
//	http.requests  (counter)  requests completed
//	http.errors    (counter)  responses with status >= 500
//	http.latency   (histogram) wall-clock seconds per request
//	http.in_flight (gauge)    requests currently being served
//
// A handler that panics is accounted the same way and counted in
// http.errors. The panic is logged and answered with a 500 if no header went
// out yet; otherwise, and for http.ErrAbortHandler, http.ErrAbortHandler is
// raised again for net/http to cut the response off with.
//
// A nil *Registry vends nil handles, so the wrapper degrades to plain
// status-code capture with no locking.
func (l *Registry) Middleware(route string, next http.Handler) http.Handler {
	requests := l.Counter("http.requests", route)
	errors := l.Counter("http.errors", route)
	latency := l.Histogram("http.latency", route)
	inFlight := l.Gauge("http.in_flight", route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inFlight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			p := recover()
			abort := p == http.ErrAbortHandler
			if p != nil && !abort {
				log.Printf("obs: panic serving %s: %v\n%s", route, p, debug.Stack())
				if sw.status == 0 {
					http.Error(sw, http.StatusText(http.StatusInternalServerError), http.StatusInternalServerError)
				} else {
					abort = true // part of a response went out
				}
			}
			inFlight.Add(-1)
			requests.Inc()
			if sw.status >= 500 || p != nil {
				errors.Inc()
			}
			latency.Observe(time.Since(start).Seconds())
			if abort {
				panic(http.ErrAbortHandler)
			}
		}()
		next.ServeHTTP(sw, r)
	})
}
