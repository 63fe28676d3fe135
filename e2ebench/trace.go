package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"viper/internal/chunkstore"
	"viper/internal/kvstore"
	"viper/internal/metrics"
	"viper/internal/pubsub"
	"viper/internal/transport"
)

// span is one traced interval. Spans of one version share Version; a
// child names its cause in Parent (0 = root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Version  uint64 `json:"version"`
	Consumer int    `json:"consumer,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory while the traced phase runs; write
// flushes them once the run ends. A nil or disabled log records nothing.
type spanLog struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a span and returns its ID (0 when not recording).
func (l *spanLog) add(name string, parent int, v uint64, consumer int, start, end time.Time) int {
	if l == nil || !l.on.Load() {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Version: v, Consumer: consumer,
		StartNs: int64(start.Sub(l.epoch)), EndNs: int64(end.Sub(l.epoch)),
	})
	return id
}

// updateSpans records version v's root update span with its publish and
// per-consumer install children, returning the root's ID.
func (l *spanLog) updateSpans(v uint64, t timing) int {
	root := l.add("update", 0, v, 0, t.start, t.end)
	if root == 0 {
		return 0
	}
	l.add("publish", root, v, 0, t.start, t.published)
	for i, at := range t.installs {
		l.add("install", root, v, i+1, t.start, at)
	}
	return root
}

// write stores the spans as JSON lines under cfg.spanDir.
func (l *spanLog) write(cfg config) error {
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// connAcct counts bytes and time blocked in Write per connection role,
// through the dial/wrap hooks the delivery packages expose. Counting is
// switched on only for the traced phase.
type connAcct struct {
	on    atomic.Bool
	mu    sync.Mutex
	roles map[string]*roleCounts
}

type roleCounts struct {
	writeBytes, writeNs, readBytes atomic.Int64
}

func newConnAcct() *connAcct { return &connAcct{roles: make(map[string]*roleCounts)} }

func (a *connAcct) role(name string) *roleCounts {
	a.mu.Lock()
	defer a.mu.Unlock()
	rc, ok := a.roles[name]
	if !ok {
		rc = &roleCounts{}
		a.roles[name] = rc
	}
	return rc
}

// wrap returns a conn decorator for role (nil on a nil acct, leaving
// the hook unset).
func (a *connAcct) wrap(name string) func(net.Conn) net.Conn {
	if a == nil {
		return nil
	}
	rc := a.role(name)
	return func(c net.Conn) net.Conn { return &acctConn{Conn: c, rc: rc, on: &a.on} }
}

// dial returns a TCP dialer whose conns are counted under role (nil on
// a nil acct).
func (a *connAcct) dial(name string) func(addr string) (net.Conn, error) {
	if a == nil {
		return nil
	}
	wrap := a.wrap(name)
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}
}

type acctConn struct {
	net.Conn
	rc *roleCounts
	on *atomic.Bool
}

func (c *acctConn) Write(b []byte) (int, error) {
	if !c.on.Load() {
		return c.Conn.Write(b)
	}
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.rc.writeNs.Add(int64(time.Since(start)))
	c.rc.writeBytes.Add(int64(n))
	return n, err
}

func (c *acctConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.on.Load() {
		c.rc.readBytes.Add(int64(n))
	}
	return n, err
}

// write stores the per-role totals as JSON next to the spans.
func (a *connAcct) write(cfg config) error {
	type totals struct {
		WriteBytes int64   `json:"write_bytes"`
		ReadBytes  int64   `json:"read_bytes"`
		WriteMs    float64 `json:"write_blocked_ms"`
	}
	out := make(map[string]totals)
	a.mu.Lock()
	for name, rc := range a.roles {
		out[name] = totals{rc.writeBytes.Load(), rc.readBytes.Load(), float64(rc.writeNs.Load()) / 1e6}
	}
	a.mu.Unlock()
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.spanDir, fmt.Sprintf("conns-%s-seed%d.json", cfg.workload, cfg.seed)), b, 0o644)
}

// writeMs is the time role spent blocked in Write, in ms.
func (a *connAcct) writeMs(name string) float64 {
	return float64(a.role(name).writeNs.Load()) / 1e6
}

// registries are the package metrics registries the traced run reads.
var registries = []*metrics.Registry{
	transport.Metrics(), kvstore.Metrics(), pubsub.Metrics(), chunkstore.Metrics(),
}

// regSnap holds every counter and gauge of registries, keyed
// "registry.instrument".
type regSnap map[string]int64

func readRegistries() regSnap {
	out := make(regSnap)
	for _, r := range registries {
		s := r.Snapshot()
		for _, p := range s.Points {
			out[s.Registry+"."+p.Name] = p.Value
		}
	}
	return out
}

// delta is the counter movement from before to s.
func (s regSnap) delta(before regSnap, name string) float64 {
	return float64(s[name] - before[name])
}
