package obs

import (
	"net/http"
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
		next.ServeHTTP(sw, r)
		inFlight.Add(-1)
		requests.Inc()
		if sw.status >= 500 {
			errors.Inc()
		}
		latency.Observe(time.Since(start).Seconds())
	})
}
