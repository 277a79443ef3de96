package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	serverReadyTimeout = 10 * time.Second
	serverStopTimeout  = 5 * time.Second
)

// server is one dequed or schedd process, built from the tree under test
// and listening on an ephemeral loopback port.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr *tailBuffer
	exited chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after exited is closed
}

// startServer launches bin with args and returns once it is listening:
// it has printed its banner line, which it does after writing the
// address file.
func startServer(cfg config, bin string, args []string) (*server, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(cfg.outDir, fmt.Sprintf("%s-%d.addr", bin, os.Getpid()))
	os.Remove(addrFile)
	path := filepath.Join(cfg.root, ".bench_build", "bin", bin)
	full := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain-timeout", "1s"}, args...)
	ready := &lineSignal{ch: make(chan struct{})}
	s := &server{
		cmd:    exec.Command(path, full...),
		stderr: &tailBuffer{max: 4096},
		exited: make(chan struct{}),
	}
	s.cmd.Stdout = ready
	s.cmd.Stderr = s.stderr
	// Should the benchmark itself be killed, take the server with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := s.cmd.Start
	if p := cfg.place; p != nil {
		start = func() error { return startOn(s.cmd, p.server, p.client) }
	}
	if err := start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	select {
	case <-ready.ch:
	case <-s.exited:
		return nil, fmt.Errorf("%s exited before listening: %v: %s", bin, s.err, s.stderr)
	case <-time.After(serverReadyTimeout):
		s.stop()
		return nil, fmt.Errorf("%s did not start listening within %s", bin, serverReadyTimeout)
	}
	b, err := os.ReadFile(addrFile)
	os.Remove(addrFile)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.addr = strings.TrimSpace(string(b))
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to drain and exit, kills it if it has not exited
// within serverStopTimeout, and returns once it has been waited for.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return
	case <-time.After(serverStopTimeout):
	}
	s.cmd.Process.Kill()
	<-s.exited
}

func (s *server) dial() (*countConn, error) {
	c, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c}, nil
}

// countConn counts the bytes a connection moves. Only the goroutine
// using the connection touches the counts.
type countConn struct {
	net.Conn
	read, written uint64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += uint64(n)
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += uint64(n)
	return n, err
}

// lineSignal closes ch once a full line has been written to it, and
// discards everything.
type lineSignal struct {
	once sync.Once
	ch   chan struct{}
}

func (l *lineSignal) Write(p []byte) (int, error) {
	if bytes.IndexByte(p, '\n') >= 0 {
		l.once.Do(func() { close(l.ch) })
	}
	return len(p), nil
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// isTimeout reports whether err is a connection deadline expiring.
func isTimeout(err error) bool { return errors.Is(err, os.ErrDeadlineExceeded) }
