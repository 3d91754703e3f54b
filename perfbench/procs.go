package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux the Go toolchain supports by default).
const clockTicks = 100

// node is one running ussd process.
type node struct {
	cmd  *exec.Cmd
	url  string // base URL, http://127.0.0.1:<port>
	log  *os.File
	done chan error // receives Wait's result once the process exits
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them. Another process could take one in between; ussd then fails to
// listen and the run reports it.
func freePorts(n int) ([]int, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startNode launches bin with args, logging to logPath. The process is
// killed if the benchmark dies first.
func startNode(bin, url, logPath string, args []string) (*node, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	n := &node{cmd: cmd, url: url, log: lf, done: make(chan error, 1)}
	go func() { n.done <- cmd.Wait() }()
	return n, nil
}

// waitReady polls /readyz until the node answers 200, the process exits,
// or ctx ends.
func (n *node) waitReady(ctx context.Context, hc *http.Client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-n.done:
			n.done <- err
			return fmt.Errorf("ussd %s exited before ready: %v (log %s)", n.url, err, n.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("ussd %s not ready: %w", n.url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited after grace.
func (n *node) stop(grace time.Duration) error {
	defer n.log.Close()
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-n.done:
		var ee *exec.ExitError
		if err != nil && !errors.As(err, &ee) {
			return err
		}
		return nil
	case <-time.After(grace):
		_ = n.cmd.Process.Kill()
		<-n.done
		return fmt.Errorf("ussd %s ignored SIGTERM for %v; killed", n.url, grace)
	}
}

// pid returns the process ID.
func (n *node) pid() int { return n.cmd.Process.Pid }

// cpuMicros returns the process's user+system CPU time in microseconds.
func cpuMicros(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	rp := strings.LastIndexByte(s, ')')
	if rp < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	f := strings.Fields(s[rp+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat times", pid)
	}
	return (ut + st) * 1e6 / clockTicks, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cluster is a set of running nodes plus where they keep their files.
type cluster struct {
	nodes []*node
	dir   string
}

// launch starts count ussd processes under dir. In cluster mode every
// node gets -cluster, -cluster-self and the full -peers list; with
// durable set each gets its own -data-dir. Only deployment flags are
// passed: every tuning and durability knob stays at ussd's default.
func launch(ctx context.Context, bin, dir string, count int, clustered, durable bool, hc *http.Client) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ports, err := freePorts(count)
	if err != nil {
		return nil, err
	}
	urls := make([]string, count)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	// Nodes start one at a time, each ready before the next launches: a
	// cluster node's boot repair asks its peers for copies before it
	// serves, so nodes started together would wait out each other's
	// request timeouts.
	c := &cluster{dir: dir}
	for i, p := range ports {
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", p)}
		if durable {
			args = append(args, "-data-dir", filepath.Join(dir, fmt.Sprintf("data-%d", i)))
		}
		if clustered {
			args = append(args, "-cluster", "-cluster-self", urls[i], "-peers", strings.Join(urls, ","))
		}
		n, err := startNode(bin, urls[i], filepath.Join(dir, fmt.Sprintf("ussd-%d.log", i)), args)
		if err == nil {
			c.nodes = append(c.nodes, n)
			err = n.waitReady(ctx, hc)
		}
		if err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// stop stops every node and waits for each to exit.
func (c *cluster) stop() error {
	var first error
	for _, n := range c.nodes {
		if err := n.stop(20 * time.Second); err != nil && first == nil {
			first = err
		}
	}
	c.nodes = nil
	return first
}

// cpuMicros sums CPU time over the nodes.
func (c *cluster) cpuMicros() (int64, error) {
	var t int64
	for _, n := range c.nodes {
		us, err := cpuMicros(n.pid())
		if err != nil {
			return 0, err
		}
		t += us
	}
	return t, nil
}

// peakRSSMB is the largest peak RSS over the nodes.
func (c *cluster) peakRSSMB() (float64, error) {
	var m float64
	for _, n := range c.nodes {
		v, err := peakRSSMB(n.pid())
		if err != nil {
			return 0, err
		}
		m = max(m, v)
	}
	return m, nil
}
