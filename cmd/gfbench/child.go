package main

// Entry points booted in child processes (gfbench --serve-child KIND): the
// serve-mixed server, and the cold boots setup_s times. A child starts the
// entry point on a loopback listener, waits for /healthz, prints
// "ready URL" and serves until its standard input closes; then it shuts
// down, writes its spans if it was traced, prints "dropped N" and exits.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gfmap/internal/obs"
	"gfmap/internal/server"
)

// child is a running gfbench --serve-child process.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	url    string
	ready  time.Duration // from exec until the entry point answered /healthz

	once    sync.Once
	rssMB   float64
	dropped uint64
	err     error
}

// startChild boots kind ("serve" or "fleet") in a child process; with
// spans set, the server is traced and its spans land in that file.
func startChild(e *env, kind, spans string) (*child, error) {
	args := []string{"--serve-child", kind}
	if spans != "" {
		args = append(args, "--serve-spans", spans)
	}
	cmd := exec.Command(e.self, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, stdout: bufio.NewReader(stdout)}
	line, err := c.stdout.ReadString('\n')
	c.ready = time.Since(start)
	url, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
	if err != nil || !ok {
		_, _, werr := c.stop()
		return nil, fmt.Errorf("%s child printed %q, want ready URL (exit: %v)", kind, line, werr)
	}
	c.url = url
	return c, nil
}

// stop closes the child's standard input, which shuts it down, and waits
// for it to exit. It returns the child's peak RSS in MB and how many trace
// records its tracer dropped. Calling it again returns the same values.
func (c *child) stop() (rssMB float64, dropped uint64, err error) {
	c.once.Do(func() {
		c.stdin.Close()
		rest, _ := io.ReadAll(c.stdout)
		if c.err = c.cmd.Wait(); c.err != nil {
			return
		}
		if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			c.rssMB = float64(ru.Maxrss) / 1024
		}
		if n, ok := strings.CutPrefix(strings.TrimSpace(string(rest)), "dropped "); ok {
			c.dropped, c.err = strconv.ParseUint(n, 10, 64)
		}
	})
	return c.rssMB, c.dropped, c.err
}

// setupProbe times n cold boots of an entry point, each in a fresh child
// process so no library or cache state carries over, from exec until the
// child's /healthz answers. It returns the median in seconds.
func setupProbe(e *env, kind string, n int) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		c, err := startChild(e, kind, "")
		if err != nil {
			return 0, err
		}
		if _, _, err := c.stop(); err != nil {
			return 0, fmt.Errorf("%s set-up probe: %w", kind, err)
		}
		secs = append(secs, c.ready.Seconds())
	}
	return median(secs), nil
}

// runChild is the child side: kind "serve" is one asyncmapd with the
// deployed defaults, "fleet" a two-worker in-process fleet (its
// coordinator's URL is printed).
func runChild(kind, spans string) error {
	var (
		url  string
		stop func()
		tr   *obs.Tracer
	)
	switch kind {
	case "serve":
		cfg := server.Config{AccessLog: io.Discard}
		if spans != "" {
			tr = obs.NewTracer(0)
			cfg.Tracer = tr
		}
		s, err := startServer(cfg)
		if err != nil {
			return err
		}
		url, stop = s.url, s.stop
	case "fleet":
		f, err := server.StartInProcessFleet(fleetWorkers, server.Config{})
		if err != nil {
			return err
		}
		url, stop = f.CoordinatorURL, f.Close
	default:
		return fmt.Errorf("unknown --serve-child %q", kind)
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		stop()
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		stop()
		return fmt.Errorf("/healthz: status %d", resp.StatusCode)
	}
	fmt.Println("ready", url)
	_, _ = io.Copy(io.Discard, os.Stdin) // serve until the parent closes stdin
	stop()
	if tr == nil {
		return nil
	}
	f, err := os.Create(spans)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("dropped", tr.Dropped())
	return nil
}

// liveServer is an asyncmapd (server.New) on a loopback listener.
type liveServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func startServer(cfg server.Config) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *liveServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // on timeout the listener is closed anyway
	<-s.done
}
