package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one blowfishd subprocess on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error // receives cmd.Wait's result once

	stopOnce sync.Once
	stopErr  error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin at its default flags; only the listen address, the
// data directory (durable workloads) and the noise seed are set.
func startDaemon(bin, dataDir, logPath string, seed int64) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr, "-seed", strconv.FormatInt(seed, 10)}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	return d, nil
}

// waitReady polls GET /readyz until it answers 200.
func (d *daemon) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("blowfishd exited before ready: %v (see %s)", err, d.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("blowfishd not ready after %v (see %s)", timeout, d.log.Name())
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM (the daemon drains and writes its final snapshot),
// waits for the exit, and kills the process if it hangs. Later calls return
// the first call's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		defer d.log.Close()
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case d.stopErr = <-d.done:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
			d.stopErr = errors.New("blowfishd ignored SIGTERM for 30s; killed")
		}
	})
	return d.stopErr
}

// cpuTime is the daemon's user+system CPU time.
func (d *daemon) cpuTime() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks of 1/100 s.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// rssMB reads the daemon's VmRSS from /proc/<pid>/status, in MiB.
func (d *daemon) rssMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// rssSampler reads the daemon's VmRSS at a fixed interval until stopped.
type rssSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []float64
	err     error
}

func sampleRSS(d *daemon, every time.Duration) *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-t.C:
				v, err := d.rssMB()
				if err != nil {
					s.err = err
					return
				}
				s.samples = append(s.samples, v)
			}
		}
	}()
	return s
}

// stop ends sampling and returns the median resident set size: steadier
// than the peak, which depends on where the daemon's GC cycles fall.
func (s *rssSampler) stop() (float64, error) {
	close(s.quit)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	if len(s.samples) == 0 {
		return 0, errors.New("no VmRSS samples")
	}
	return median(s.samples), nil
}

// stats reads GET /v1/stats as a flat map of counters.
func (d *daemon) stats(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(d.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// budget reads one tenant's ledger from GET /v1/budget.
func (d *daemon) budget(c *http.Client, tenant string) (spent float64, releases int64, err error) {
	resp, err := c.Get(d.base + "/v1/budget?tenant=" + tenant)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var b struct {
		Budget struct {
			SpentEpsilon float64 `json:"spent_epsilon"`
			Releases     int64   `json:"releases"`
		} `json:"budget"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		return 0, 0, fmt.Errorf("decoding /v1/budget: %w", err)
	}
	return b.Budget.SpentEpsilon, b.Budget.Releases, nil
}

// defaultBatchWindow reads the daemon's -batch-window default from its
// -help text, so the in-process server of the traced pass runs the same
// configuration as the daemon. A daemon without the flag does not batch.
func defaultBatchWindow(bin string) (time.Duration, error) {
	out, _ := exec.Command(bin, "-help").CombinedOutput()
	m := regexp.MustCompile(`(?m)^\s*-batch-window\b[^\n]*\n[^\n]*\(default ([^)\n]+)\)\s*$`).FindSubmatch(out)
	if m == nil {
		return 0, nil
	}
	return time.ParseDuration(string(m[1]))
}

// fsType names the filesystem holding dir.
func fsType(dir string) (name string, tmpfs bool, err error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", false, err
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x2fc12fc1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	t := int64(st.Type)
	if n, ok := names[t]; ok {
		return n, t == 0x01021994, nil
	}
	return fmt.Sprintf("0x%x", t), false, nil
}
