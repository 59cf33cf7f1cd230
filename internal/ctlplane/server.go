package ctlplane

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"

	"gallium/internal/engine"
)

// Runtime is the running-session surface the control server drives. The
// facade's Session implements it; keeping it an interface here avoids an
// import cycle and lets tests serve a fake.
type Runtime interface {
	// Reconfigure validates and applies one typed operation atomically.
	Reconfigure(op Op) error
	// Stats reports the live counters (settling a barrier as needed).
	Stats() (*engine.Report, error)
	// StageNames lists the pipeline's stage names for by-name addressing.
	StageNames() []string
}

// MaxLine bounds one protocol line, request or response, in bytes,
// newline included.
const MaxLine = 16 << 20

// Server answers the JSON control protocol on a unix socket for one
// running Runtime. Start it with Listen; Close stops it.
type Server struct {
	rt Runtime

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{} // open client connections, closed by Close
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a control server for the runtime.
func NewServer(rt Runtime) *Server { return &Server{rt: rt} }

// Listen binds the unix socket (removing a stale socket file first) and
// starts accepting in a background goroutine. Returns the bound path.
func (s *Server) Listen(path string) error {
	// A previous run's socket file would make Listen fail with EADDRINUSE;
	// a unix socket with no listener is dead weight, so remove it.
	if info, err := os.Stat(path); err == nil && info.Mode()&os.ModeSocket != 0 {
		_ = os.Remove(path)
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		return fmt.Errorf("ctlplane: %w", err)
	}
	s.mu.Lock()
	s.ln, s.conns = ln, map[net.Conn]struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // Close tore the listener down
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// serveConn answers newline-delimited JSON requests until the peer hangs
// up. A malformed line gets an error response rather than killing the
// connection; a line longer than MaxLine gets one too, and then the
// connection closes, since the rest of that line cannot be framed.
func (s *Server) serveConn(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		var resp Response
		if err := json.Unmarshal(line, &req); err != nil {
			resp = Response{Error: fmt.Sprintf("bad request: %v", err)}
		} else {
			resp = s.handle(req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		_ = enc.Encode(Response{Error: fmt.Sprintf("bad request: line exceeds %d bytes", MaxLine)})
	}
}

func (s *Server) handle(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpStats:
		st, err := s.rt.Stats()
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, Stats: st}
	}
	op, err := req.ToOp(s.rt.StageNames())
	if err != nil {
		return Response{Error: err.Error()}
	}
	if err := s.rt.Reconfigure(op); err != nil {
		return Response{Error: err.Error()}
	}
	return Response{OK: true}
}

// Close stops accepting, hangs up every open connection (a request being
// handled finishes first, its response lost), waits for the connection
// goroutines, and removes the socket file.
func (s *Server) Close() error {
	s.mu.Lock()
	ln := s.ln
	closed := s.closed
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if closed || ln == nil {
		return nil
	}
	err := ln.Close()
	s.wg.Wait()
	return err
}

// Client speaks the control protocol to a serving galliumsim.
type Client struct {
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
	mu   sync.Mutex
}

// Dial connects to the control socket.
func Dial(path string) (*Client, error) {
	conn, err := net.Dial("unix", path)
	if err != nil {
		return nil, fmt.Errorf("ctlplane: %w", err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	return &Client{conn: conn, sc: sc, enc: json.NewEncoder(conn)}, nil
}

// Do sends one request and waits for its response. An error response
// (ok=false) is returned as a Go error.
func (c *Client) Do(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("ctlplane: send: %w", err)
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Response{}, fmt.Errorf("ctlplane: recv: %w", err)
		}
		return Response{}, errors.New("ctlplane: server closed the connection")
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return Response{}, fmt.Errorf("ctlplane: recv: %w", err)
	}
	if !resp.OK {
		return resp, fmt.Errorf("ctlplane: server: %s", resp.Error)
	}
	return resp, nil
}

// Close hangs up.
func (c *Client) Close() error { return c.conn.Close() }
