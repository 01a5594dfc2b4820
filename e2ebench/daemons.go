package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonWorkers is every daemon's -workers: its per-query shard fan-out
// and batch parallelism.
const daemonWorkers = 2

// daemon is one pigeonringd process on a loopback port.
type daemon struct {
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// cluster is the set of daemons one workload talks to: a single
// daemon, or a coordinator in front of replicas. front is the one
// clients address.
type cluster struct {
	front    *daemon
	replicas []*daemon // empty for a single daemon
	all      []*daemon
}

// freeAddr returns a loopback address with a port nobody listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches pigeonringd with extra flags and waits until it
// answers /v1/healthz.
func startDaemon(ctx context.Context, bin, logPath string, extra ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting pigeonringd: %w", err)
	}
	d := &daemon{url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() { cmd.Wait(); close(d.done) }()
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("pigeonringd on %s exited during start-up (log: %s)", addr, logPath)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop asks the daemon to drain and exit, kills it if it does not
// within five seconds, and returns once the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSBytes reads the daemon's resident-memory high-water mark.
func (d *daemon) peakRSSBytes() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line for pid %d", d.cmd.Process.Pid)
}

// startCluster boots the workload's daemons: one, or replicas first and
// then a coordinator over them. Every daemon gets its own snapshot
// directory under dir and two workers, whatever the host's CPU count,
// which the server layer's batch figures rely on.
func startCluster(ctx context.Context, bin, dir string, replicas int) (*cluster, error) {
	c := &cluster{}
	start := func(name string, extra ...string) (*daemon, error) {
		sd := filepath.Join(dir, name+".snap")
		if err := os.MkdirAll(sd, 0o755); err != nil {
			return nil, err
		}
		d, err := startDaemon(ctx, bin, filepath.Join(dir, name+".log"), append([]string{"-snapshot-dir", sd, "-workers", strconv.Itoa(daemonWorkers)}, extra...)...)
		if err == nil {
			c.all = append(c.all, d)
		}
		return d, err
	}
	if replicas == 0 {
		d, err := start("daemon")
		if err != nil {
			return nil, err
		}
		c.front = d
		return c, nil
	}
	var urls []string
	for i := 0; i < replicas; i++ {
		d, err := start(fmt.Sprintf("replica%d", i))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.replicas = append(c.replicas, d)
		urls = append(urls, d.url)
	}
	d, err := start("coordinator", "-coordinator", "-replicas", strings.Join(urls, ","))
	if err != nil {
		c.stop()
		return nil, err
	}
	c.front = d
	return c, nil
}

// stop ends every daemon, the coordinator first, and waits for all.
func (c *cluster) stop() {
	var wg sync.WaitGroup
	for i := len(c.all) - 1; i >= 0; i-- {
		wg.Add(1)
		go func(d *daemon) { defer wg.Done(); d.stop() }(c.all[i])
	}
	wg.Wait()
}

// peakRSSMB sums the daemons' resident-memory high-water marks.
func (c *cluster) peakRSSMB() (float64, error) {
	var sum int64
	for _, d := range c.all {
		b, err := d.peakRSSBytes()
		if err != nil {
			return 0, err
		}
		sum += b
	}
	return float64(sum) / 1e6, nil
}

// conn is one HTTP/1.1 keep-alive connection of the load generator.
type conn struct{ c *http.Client }

func newConn() *conn {
	return &conn{c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// post sends body and returns the full response body; a status other
// than 200 is an error.
func (c *conn) post(ctx context.Context, url string, body []byte, reqID string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	return c.do(req)
}

func (c *conn) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.do(req)
}

func (c *conn) do(req *http.Request) ([]byte, error) {
	resp, err := c.c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// postJSON marshals in, posts it and decodes the answer into out.
func (c *conn) postJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.post(ctx, url, body, "")
	if err != nil {
		return err
	}
	return json.Unmarshal(resp, out)
}

// scrapeSum adds up the Prometheus samples whose name (labels aside)
// is name, from a daemon's /metrics text.
func scrapeSum(text []byte, name string) float64 {
	sum := 0.0
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		f := strings.Fields(line)
		if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}
