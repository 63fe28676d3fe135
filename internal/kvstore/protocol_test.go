package kvstore

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"
)

// rawConn opens a raw TCP connection to a fresh server for protocol
// abuse tests.
func rawConn(t *testing.T) (net.Conn, *bufio.Reader) {
	t.Helper()
	srv := NewServer(NewStore())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn, bufio.NewReader(conn)
}

func sendLine(t *testing.T, conn net.Conn, line string) {
	t.Helper()
	if _, err := conn.Write([]byte(line + "\r\n")); err != nil {
		t.Fatal(err)
	}
}

func readLine(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(line, "\r\n")
}

func TestProtocolUnknownCommand(t *testing.T) {
	conn, r := rawConn(t)
	sendLine(t, conn, "FLUSHALL")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR unknown command") {
		t.Fatalf("reply = %q", got)
	}
	// The connection must survive and keep serving.
	sendLine(t, conn, "PING")
	if got := readLine(t, r); got != "+PONG" {
		t.Fatalf("after error, PING reply = %q", got)
	}
}

func TestProtocolMalformedSet(t *testing.T) {
	conn, r := rawConn(t)
	sendLine(t, conn, "SET keyonly")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR usage") {
		t.Fatalf("reply = %q", got)
	}
	sendLine(t, conn, "SET key notanumber")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR bad length") {
		t.Fatalf("reply = %q", got)
	}
	sendLine(t, conn, "SET key -5")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR bad length") {
		t.Fatalf("reply = %q", got)
	}
}

func TestProtocolEmptyLinesIgnored(t *testing.T) {
	conn, r := rawConn(t)
	sendLine(t, conn, "")
	sendLine(t, conn, "PING")
	if got := readLine(t, r); got != "+PONG" {
		t.Fatalf("reply = %q", got)
	}
}

func TestProtocolIncrNonInteger(t *testing.T) {
	conn, r := rawConn(t)
	// SET key to a non-integer, then INCR must report an error.
	payload := "abc"
	sendLine(t, conn, "SET k 3")
	if _, err := conn.Write([]byte(payload + "\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); got != "+OK" {
		t.Fatalf("SET reply = %q", got)
	}
	sendLine(t, conn, "INCR k")
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("INCR reply = %q", got)
	}
}

func TestProtocolLargeValue(t *testing.T) {
	_, c := newServerClient(t)
	big := strings.Repeat("x", 1<<20) // 1 MiB value
	if err := c.Set("big", big); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("big")
	if err != nil || len(got) != len(big) {
		t.Fatalf("Get len = %d, err = %v", len(got), err)
	}
}

func TestProtocolAbruptDisconnectDuringSet(t *testing.T) {
	conn, _ := rawConn(t)
	// Announce a 100-byte payload but hang up after 10: the server must
	// drop the connection without crashing (verified by a fresh client
	// still being served — rawConn's cleanup does that implicitly via a
	// second connection below).
	sendLine(t, conn, "SET k 100")
	if _, err := conn.Write([]byte("only ten b")); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// A new connection to the same server must still work.
	conn2, r2 := rawConn(t)
	sendLine(t, conn2, "PING")
	if got := readLine(t, r2); got != "+PONG" {
		t.Fatalf("reply = %q", got)
	}
}

// TestServerCloseIdempotent: Close must be safe to call more than once.
// Before the sync.Once guard the second call panicked on the double
// close of s.done (found by viper-vet's chanlife analyzer).
func TestServerCloseIdempotent(t *testing.T) {
	s := NewServer(NewStore())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolSetRejectsBadTerminator: a SET whose declared length does
// not land on the \r\n terminator is a desynchronized stream. The server
// must refuse the value — not store the first n bytes and carry on
// reading the rest as the next command — and drop the connection.
func TestProtocolSetRejectsBadTerminator(t *testing.T) {
	store := NewStore()
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	// Declares 3 bytes but sends 5 before the CRLF.
	if _, err := conn.Write([]byte("SET k 3\r\nabcXY\r\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLine(t, r); !strings.HasPrefix(got, "-ERR") {
		t.Fatalf("SET reply = %q, want an error", got)
	}
	if line, err := r.ReadString('\n'); err == nil {
		t.Fatalf("connection still serving after a desync: read %q", line)
	}
	if v, err := store.Get("k"); err == nil {
		t.Fatalf("mis-framed value stored as %q", v)
	}
}

// TestClientBulkRejectsBadTerminator: the client's bulk reader applies
// the same framing check to a server reply whose length is wrong.
func TestClientBulkRejectsBadTerminator(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if _, err := r.ReadString('\n'); err != nil {
			return
		}
		conn.Write([]byte("$3\r\nabcXY\r\n"))
		r.ReadString('\n') // hold the conn open until the client hangs up
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, err := c.Get("k"); err == nil {
		t.Fatalf("mis-framed bulk reply accepted as %q", v)
	}
}

// TestClientSetBytesRoundTrip: the []byte SET form frames values exactly
// like Set, including empty values and values carrying CRLF.
func TestClientSetBytesRoundTrip(t *testing.T) {
	_, c := newServerClient(t)
	for _, v := range []string{"", "plain", "with\r\nCRLF\r\n", strings.Repeat("y", 1<<16)} {
		if err := c.SetBytes("k", []byte(v)); err != nil {
			t.Fatal(err)
		}
		got, err := c.Get("k")
		if err != nil || got != v {
			t.Fatalf("Get after SetBytes(%d bytes) = %d bytes, err %v", len(v), len(got), err)
		}
	}
}
