package gengc

import (
	"net"
	"net/http"
	"sync"
	"time"
)

// Hardened HTTP serving for the observability endpoints. The default
// net/http server has no read/header/write timeouts and accepts
// connections without bound — a slowloris client or a connection flood
// against /metrics could starve the very process the endpoint is meant
// to watch. cmd/gcmon serves through these helpers; the limits are
// deliberately conservative because the handlers are small and local (a
// scrape, a snapshot, a flight-recorder dump).

// HardenedServer returns an *http.Server for h with bounded
// read-header, read, write and idle timeouts, suitable for the
// runtime's observability endpoints. The caller may adjust the fields
// before serving.
func HardenedServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// LimitListener caps the number of simultaneously accepted connections
// at n: Accept blocks while n connections are open, releasing a slot
// when a connection closes. (A hand-rolled x/net/netutil.LimitListener —
// the module takes no external dependencies.)
func LimitListener(l net.Listener, n int) net.Listener {
	return &limitListener{Listener: l, sem: make(chan struct{}, n)}
}

type limitListener struct {
	net.Listener
	sem chan struct{}
}

func (l *limitListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitConn{Conn: c, release: func() { <-l.sem }}, nil
}

type limitConn struct {
	net.Conn
	once    sync.Once
	release func()
}

func (c *limitConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.release)
	return err
}

// ListenAndServeHardened serves h on addr through HardenedServer with
// at most maxConns simultaneous connections (0 selects 64). It blocks
// like http.ListenAndServe; unlike it, a stalled or flooding client
// cannot hold connections open forever.
func ListenAndServeHardened(addr string, h http.Handler, maxConns int) error {
	if maxConns <= 0 {
		maxConns = 64
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := HardenedServer(addr, h)
	return srv.Serve(LimitListener(ln, maxConns))
}
