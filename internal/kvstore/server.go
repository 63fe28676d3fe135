package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// Server exposes a Store over TCP using a RESP-like text protocol:
//
//	SET <key> <len>\r\n<value bytes>\r\n  → +OK
//	GET <key>                            → $<len>\r\n<value>\r\n or $-1
//	DEL <key>                            → :1 or :0
//	INCR <key>                           → :<n> or -ERR
//	KEYS <prefix>                        → *<n> then $-framed keys
//	PING                                 → +PONG
//
// Values are length-prefixed so they may contain spaces and newlines.
// A value whose declared length does not land on its trailing \r\n is
// refused with -ERR and the desynchronized connection is closed; the
// client applies the same check to bulk replies.
type Server struct {
	store *Store

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

// NewServer wraps store in a TCP server (not yet listening).
func NewServer(store *Store) *Server {
	return &Server{store: store, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
}

// Listen binds to addr (e.g. "127.0.0.1:0") and serves until Close.
// It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("kvstore: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				return // listener failed
			}
		}
		s.mu.Lock()
		select {
		case <-s.done:
			// Close already swept s.conns and would wait on this
			// connection's serveConn until the peer hung up.
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			continue
		}
		if err := s.dispatch(line, r, w); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(line string, r *bufio.Reader, w *bufio.Writer) error {
	parts := strings.SplitN(line, " ", 3)
	cmd := strings.ToUpper(parts[0])
	switch cmd {
	case "PING":
		fmt.Fprint(w, "+PONG\r\n")
	case "SET":
		if len(parts) != 3 {
			fmt.Fprint(w, "-ERR usage: SET key len\r\n")
			return nil
		}
		n, err := strconv.Atoi(parts[2])
		if err != nil || n < 0 {
			fmt.Fprint(w, "-ERR bad length\r\n")
			return nil
		}
		v, err := readValue(r, n)
		if errors.Is(err, errBadFrame) {
			// The length did not match the bytes sent: the stream is
			// desynchronized, so refuse the value and drop the conn.
			fmt.Fprintf(w, "-ERR %s\r\n", err)
			w.Flush()
			return err
		}
		if err != nil {
			return err
		}
		s.store.Set(parts[1], v)
		fmt.Fprint(w, "+OK\r\n")
	case "GET":
		if len(parts) < 2 {
			fmt.Fprint(w, "-ERR usage: GET key\r\n")
			return nil
		}
		v, err := s.store.Get(parts[1])
		if err != nil {
			fmt.Fprint(w, "$-1\r\n")
			return nil
		}
		fmt.Fprintf(w, "$%d\r\n", len(v))
		w.WriteString(v)
		w.WriteString("\r\n")
	case "DEL":
		if len(parts) < 2 {
			fmt.Fprint(w, "-ERR usage: DEL key\r\n")
			return nil
		}
		if s.store.Del(parts[1]) {
			fmt.Fprint(w, ":1\r\n")
		} else {
			fmt.Fprint(w, ":0\r\n")
		}
	case "INCR":
		if len(parts) < 2 {
			fmt.Fprint(w, "-ERR usage: INCR key\r\n")
			return nil
		}
		n, err := s.store.Incr(parts[1])
		if err != nil {
			fmt.Fprintf(w, "-ERR %s\r\n", err)
			return nil
		}
		fmt.Fprintf(w, ":%d\r\n", n)
	case "KEYS":
		prefix := ""
		if len(parts) >= 2 {
			prefix = parts[1]
		}
		keys := s.store.Keys(prefix)
		fmt.Fprintf(w, "*%d\r\n", len(keys))
		for _, k := range keys {
			fmt.Fprintf(w, "$%d\r\n%s\r\n", len(k), k)
		}
	default:
		fmt.Fprintf(w, "-ERR unknown command %q\r\n", cmd)
	}
	return nil
}

// errBadFrame reports a length-prefixed value whose bytes were not
// followed by the \r\n terminator: the declared length was wrong, so
// the stream is out of sync and the value is refused.
var errBadFrame = errors.New("kvstore: value not terminated by CRLF")

// readValue reads an n-byte length-prefixed value and its \r\n
// terminator, shared by the server's SET and the client's bulk replies.
// The value is read with one allocation and handed out as a string
// without a second copy: buf never escapes or changes after the read.
func readValue(r *bufio.Reader, n int) (string, error) {
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	var term [2]byte
	if _, err := io.ReadFull(r, term[:]); err != nil {
		return "", err
	}
	if term != [2]byte{'\r', '\n'} {
		return "", errBadFrame
	}
	return unsafe.String(unsafe.SliceData(buf), n), nil
}

// Close stops the listener and closes every open connection. It is
// idempotent: only the first call closes the done channel.
func (s *Server) Close() error {
	s.once.Do(func() { close(s.done) })
	s.mu.Lock()
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
