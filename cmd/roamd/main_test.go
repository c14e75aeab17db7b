package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"whereroam/internal/cli"
	"whereroam/internal/dataset"
)

// tinyArchive writes a small three-site federation archive.
func tinyArchive(t *testing.T) string {
	t.Helper()
	cfg := dataset.DefaultFederationConfig()
	cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 150, 80, 5
	cfg.ArchiveDir = t.TempDir()
	dataset.GenerateFederation(cfg)
	return cfg.ArchiveDir
}

// gateListener lets the test see two server-side events: the first
// Read on a connection accepted once armed is set (the server is
// reading that request), and the server closing the listener (Shutdown
// has begun).
type gateListener struct {
	net.Listener
	armed     atomic.Bool
	reading   chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
}

func (l *gateListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.armed.Load() {
		return c, err
	}
	return &gateConn{Conn: c, reading: l.reading}, nil
}

func (l *gateListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return l.Listener.Close()
}

type gateConn struct {
	net.Conn
	reading chan struct{}
	once    sync.Once
}

func (c *gateConn) Read(p []byte) (int, error) {
	c.once.Do(func() { close(c.reading) })
	return c.Conn.Read(p)
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s %v\n%s", url, resp.Status, err, body)
	}
	return string(body)
}

// TestServesAndDrains serves a tiny archive on 127.0.0.1:0, holds a
// request open across the cancel, and checks that it completes and
// that run then returns nil.
func TestServesAndDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gateListener{Listener: ln, reading: make(chan struct{}), closed: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	args := []string{"-archive", tinyArchive(t), "-cache-mb", "16"}
	go func() {
		done <- run(ctx, args, func(string, string) (net.Listener, error) { return gl, nil })
	}()

	base := "http://" + ln.Addr().String()
	get(t, base+"/v1/healthz")
	sites := get(t, base+"/v1/sites")
	for _, site := range dataset.DefaultFederationHosts() {
		if !strings.Contains(sites, site.Concat()) {
			t.Errorf("/v1/sites lacks %s:\n%s", site.Concat(), sites)
		}
	}

	// Send half a request, cancel once the server is reading it, and
	// finish it once Shutdown has closed the listener.
	gl.armed.Store(true)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/sites HTTP/1.1\r\nHost: roamd\r\n"); err != nil {
		t.Fatal(err)
	}
	<-gl.reading
	cancel()
	<-gl.closed
	if _, err := io.WriteString(conn, "\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("the in-flight request was cut: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight request got %s", resp.Status)
	}
	if err := <-done; err != nil {
		t.Errorf("run returned %v after the drain, want nil", err)
	}
}

func TestBoundAddressFails(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	err = run(context.Background(), []string{"-archive", tinyArchive(t), "-addr", busy.Addr().String()}, net.Listen)
	if cli.ExitCode(err) != 1 {
		t.Errorf("run on a bound address = %v, want an error with exit status 1", err)
	}
}

func TestRequiresArchive(t *testing.T) {
	if code := cli.ExitCode(run(context.Background(), nil, net.Listen)); code != 2 {
		t.Errorf("a missing -archive exited %d, want 2", code)
	}
}
