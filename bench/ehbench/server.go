package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

const requestTimeout = 10 * time.Second

// buildEhserve compiles cmd/ehserve into dir (not timed).
func buildEhserve(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "ehserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "ehmodel/cmd/ehserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ehserve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one HTTP server process on a loopback port, with the client
// the benchmark reaches it through: at most nproc connections.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	logs   bytes.Buffer
}

// startServer picks a free loopback port, starts the command start
// builds for it in dir, and waits until /healthz answers.
func startServer(ctx context.Context, dir string, start func(addr string) *exec.Cmd) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, exited: make(chan struct{}), cmd: start(addr)}
	s.cmd.Dir = dir
	s.cmd.Stdout, s.cmd.Stderr = &s.logs, &s.logs
	killWithParent(s.cmd)
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait() //nolint:errcheck // the exit status of a stopped server is not interesting
		close(s.exited)
	}()
	n := workers()
	s.client = &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code, _, _, err := s.get("/healthz", ""); err == nil && code == http.StatusOK {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("%s exited during start-up:\n%s", s.cmd.Path, s.logs.String())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New(s.cmd.Path + " did not become healthy within 30s")
		}
	}
}

// startEhserve runs bin with default flags and -cache mem.
func startEhserve(ctx context.Context, bin, dir string) (*server, error) {
	return startServer(ctx, dir, func(addr string) *exec.Cmd {
		return exec.Command(bin, "-addr", addr, "-cache", "mem")
	})
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited within 20 s, and waits for the process to end.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-s.exited
	}
}

// get fetches path, optionally naming the request's trace.
func (s *server) get(path, traceID string) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	if traceID != "" {
		req.Header.Set("X-EH-Trace", traceID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// serverSpans fetches a traced ehserve request's spans (microsecond
// precision).
func (s *server) serverSpans(traceID string) ([]span, error) {
	code, _, body, err := s.get("/v1/trace/"+traceID+"?format=chrome", "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("trace %s: HTTP %d", traceID, code)
	}
	return parseChromeSpans(body)
}

// served is ehserve's own request accounting.
type served struct {
	Requests      uint64 `json:"requests"`
	RequestErrors uint64 `json:"request_errors"`
}

func (s *server) metrics() (served, error) {
	var m served
	code, _, body, err := s.get("/metrics?format=json", "")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("metrics: HTTP %d", code)
	}
	if err == nil {
		err = json.Unmarshal(body, &m)
	}
	return m, err
}

// The reference ping server. Request latency on the calibration VM is
// dominated by waking idle vCPUs and moving bytes over loopback (ehserve
// spends about 40 µs of a 400 µs round trip), and that host cost drifts
// from run to run far more than any regression bound. So the serve
// workloads interleave requests to a second process that answers every
// request with a fixed body: the same client, connections and load, no
// ehserve code. Its median latency is the run's transport baseline, and
// the gated latency is ehserve's median scaled to a nominal baseline.
// The ping server is this benchmark binary started with pingEnv set, so
// it is identical on both sides of any comparison.

// pingEnv, when set to an address, turns an ehbench process into the
// reference ping server.
const pingEnv = "EHBENCH_PING_SERVER"

// pingNominalMS is the ping's median latency on the calibration machine
// at its usual speed; scaled latencies read as milliseconds on that
// machine.
const pingNominalMS = 0.4

var pingBody = []byte(`{"status":"ok"}`)

// runPingServer serves pingBody on addr until SIGTERM or SIGINT.
func runPingServer(addr string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write(pingBody) //nolint:errcheck // client gone
	})}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			fmt.Fprintln(os.Stderr, "ehbench ping server:", err)
			return 1
		}
		return 0
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "ehbench ping server:", err)
		return 1
	}
}

// startPing starts the reference ping server: this executable again,
// with pingEnv set.
func startPing(ctx context.Context, dir string) (*server, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return startServer(ctx, dir, func(addr string) *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), pingEnv+"="+addr)
		return cmd
	})
}
