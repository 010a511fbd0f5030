package otserv

import (
	"errors"
	"net"
	"sync"
	"time"

	"ironman/internal/transport"
)

// Loop is the accept and request loop shared by the dispenser Server
// and the fleet router: one accept loop, the set of live client conns,
// and one sequential Recv → handle → Send loop per conn. The zero value
// is ready to serve.
type Loop struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[transport.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

var errLoopClosed = errors.New("otserv: serve after close")

// Serve accepts clients on ln until the listener fails or the loop is
// closed (then it returns nil). For each accepted conn it calls open
// once; every request frame on that conn is answered with
// handle(frame), and done runs after the conn has closed.
func (l *Loop) Serve(ln net.Listener, open func() (handle func([]byte) []byte, done func())) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errLoopClosed
	}
	l.ln = ln
	l.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			l.mu.Lock()
			closed := l.closed
			l.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		conn := transport.NewTCP(nc)
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		if l.conns == nil {
			l.conns = make(map[transport.Conn]struct{})
		}
		l.conns[conn] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		handle, done := open()
		go l.serveConn(conn, handle, done)
	}
}

func (l *Loop) serveConn(conn transport.Conn, handle func([]byte) []byte, done func()) {
	defer func() {
		_ = conn.Close()
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		done()
		l.wg.Done()
	}()
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		if err := conn.Send(handle(msg)); err != nil {
			return
		}
	}
}

// Close stops accepting, disconnects every client and waits for their
// request loops to end. It reports false, and does nothing, when the
// loop was already closed.
func (l *Loop) Close() bool {
	if !l.stop() {
		return false
	}
	l.dropConns()
	l.wg.Wait()
	return true
}

// shutdown stops accepting, runs drain, gives the request loops up to
// timeout to end on their own, then disconnects whoever remains and
// waits. Like Close it does nothing on a closed loop.
func (l *Loop) shutdown(timeout time.Duration, drain func()) {
	if !l.stop() {
		return
	}
	drain()
	done := make(chan struct{})
	go func() {
		l.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		l.dropConns()
		<-done
	}
}

// stop marks the loop closed and closes its listener; false means it
// was closed already.
func (l *Loop) stop() bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.closed = true
	ln := l.ln
	l.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	return true
}

func (l *Loop) dropConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for conn := range l.conns {
		_ = conn.Close()
	}
}
