// Package drain shuts an HTTP server down without waiting on connections
// that never sent a request.
//
// http.Server.Shutdown closes idle keep-alive connections at once, but it
// counts a connection that has not started a request (http.StateNew) as
// active until the connection is 5 s old. A client's transport may dial
// such spare connections at any time, so a graceful drain could stall
// for up to 5 s with nothing in flight. A Tracker remembers those
// connections and closes them when the drain starts.
package drain

import (
	"context"
	"net"
	"net/http"
	"sync"
)

// Tracker follows a server's connections through its ConnState hook.
// The zero value is ready to use.
type Tracker struct {
	mu       sync.Mutex
	fresh    map[net.Conn]struct{} // connections that have not started a request
	draining bool
}

// Track is an http.Server.ConnState hook. Once the drain has started, a
// newly accepted connection is closed at once.
func (t *Tracker) Track(c net.Conn, st http.ConnState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st != http.StateNew {
		delete(t.fresh, c)
		return
	}
	if t.draining {
		c.Close()
		return
	}
	if t.fresh == nil {
		t.fresh = make(map[net.Conn]struct{})
	}
	t.fresh[c] = struct{}{}
}

// Shutdown closes every tracked connection that has not started a
// request, then shuts srv down gracefully: srv.Shutdown closes the
// listeners and idle connections and waits, within ctx, for the requests
// in flight to finish. srv.ConnState must be t.Track.
func (t *Tracker) Shutdown(ctx context.Context, srv *http.Server) error {
	t.mu.Lock()
	t.draining = true
	for c := range t.fresh {
		c.Close()
	}
	clear(t.fresh)
	t.mu.Unlock()
	return srv.Shutdown(ctx)
}
