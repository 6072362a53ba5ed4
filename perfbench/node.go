package main

// The system under test for the TCP workloads: one dynamoth-node
// subprocess on loopback ephemeral ports, observed only through its public
// admin endpoints and /proc.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nodeProc is one booted dynamoth-node subprocess.
type nodeProc struct {
	cmd       *exec.Cmd
	respAddr  string
	adminAddr string
	http      *http.Client
}

// startNode boots a single-server node whose bootstrap plan holds only
// itself, so every channel is served locally, and waits for its banner.
func startNode(bin string) (*nodeProc, error) {
	cmd := exec.Command(bin,
		"-id", "bench",
		"-servers", "bench",
		"-listen", "127.0.0.1:0",
		"-admin-addr", "127.0.0.1:0",
		"-log-level", "error",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	// The node must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting node: %w", err)
	}
	n := &nodeProc{cmd: cmd, http: &http.Client{Timeout: 30 * time.Second}}
	if err := n.readBanner(stdout); err != nil {
		n.stop()
		return nil, err
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck // keeps the pipe drained until the node exits
	return n, nil
}

// readBanner extracts the RESP and admin addresses from the node's startup
// lines.
func (n *nodeProc) readBanner(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "serving RESP on "); ok {
			n.respAddr = strings.Fields(rest)[0]
		}
		if _, rest, ok := strings.Cut(line, "admin http on "); ok {
			n.adminAddr = strings.TrimSpace(rest)
		}
		if n.respAddr != "" && n.adminAddr != "" {
			return nil
		}
	}
	return fmt.Errorf("node banner not found (resp=%q admin=%q)", n.respAddr, n.adminAddr)
}

func (n *nodeProc) pid() int { return n.cmd.Process.Pid }

// stop kills the node and waits for it to exit.
func (n *nodeProc) stop() {
	n.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	n.cmd.Wait()         //nolint:errcheck // a killed process reports its signal
}

// scrape reads every unlabelled-or-labelled sample off /metrics whose name
// starts with one of prefixes.
func (n *nodeProc) scrape(prefixes ...string) (map[string]float64, error) {
	resp, err := n.http.Get("http://" + n.adminAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	m := parseMetrics(resp.Body, prefixes...)
	return m, nil
}

// gauge reads one unlabelled sample off /metrics.
func (n *nodeProc) gauge(name string) (float64, error) {
	m, err := n.scrape(name)
	if err != nil {
		return 0, err
	}
	v, ok := m[name]
	if !ok {
		return 0, fmt.Errorf("/metrics has no %s", name)
	}
	return v, nil
}

// awaitGauge polls /metrics until the named gauge reaches want.
func (n *nodeProc) awaitGauge(name string, want float64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		v, err := n.gauge(name)
		if err != nil {
			return err
		}
		if v >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v with %s at %v of %v", timeout, name, v, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// parseMetrics reads every sample of a Prometheus text exposition whose
// name starts with one of prefixes, keyed by name with labels.
func parseMetrics(r io.Reader, prefixes ...string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		matched := false
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				matched = true
				break
			}
		}
		if !matched {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// fetch GETs an admin path into w.
func (n *nodeProc) fetch(path string, w io.Writer) error {
	resp, err := n.http.Get("http://" + n.adminAddr + path)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTick = 100

// procCPU returns the user+system CPU time of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, fmt.Errorf("reading process CPU: %w", err)
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are space-separated, utime and stime being the 12th and
	// 13th of them.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procRSSMB returns the resident set size of pid in MB.
func procRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmRSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}
