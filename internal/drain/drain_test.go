package drain

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestShutdownClosesUnusedConnections: a connection that never sent a
// request does not hold the drain (http.Server.Shutdown alone would wait
// until it is 5 s old), while a request in flight still completes.
func TestShutdownClosesUnusedConnections(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var tr Tracker
	srv := &http.Server{
		ConnState: tr.Track,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(started)
			<-release
			io.WriteString(w, "done")
		}),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	type reply struct {
		body string
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replied <- reply{string(b), err}
	}()
	<-started
	// The idle connection is tracked once the server has accepted it;
	// poll for that rather than sleeping.
	for deadline := time.Now().Add(5 * time.Second); ; {
		tr.mu.Lock()
		n := len(tr.fresh)
		tr.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d fresh connections tracked, want 1", n)
		}
		time.Sleep(time.Millisecond)
	}

	shut := make(chan error, 1)
	t0 := time.Now()
	go func() { shut <- tr.Shutdown(context.Background(), srv) }()
	// The idle connection is closed by the server.
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := idle.Read(make([]byte, 1)); err == nil || isTimeout(err) {
		t.Fatalf("the unused connection was not closed: %v", err)
	}
	close(release)
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("Shutdown took %v with an unused connection open", d)
	}
	if r := <-replied; r.err != nil || r.body != "done" {
		t.Errorf("in-flight request: %q, %v", r.body, r.err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve: %v", err)
	}

	// A connection accepted after the drain started is closed at once.
	late, peer := net.Pipe()
	defer peer.Close()
	tr.Track(late, http.StateNew)
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("a connection tracked after the drain started: read %v, want EOF", err)
	}
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
