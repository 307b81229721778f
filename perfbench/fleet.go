package main

import (
	"bufio"
	"context"
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

	"graphcache/internal/server"
	"graphcache/internal/telemetry"
)

// daemon is one gcserved or gcrouter process of a fleet.
type daemon struct {
	name   string
	addr   string
	cmd    *exec.Cmd
	logf   *os.File
	exited chan struct{} // closed once the process has been waited for
}

// Fleet is client-facing gcrouter in replicate mode over two gcserved
// backends, each its own process on loopback.
type Fleet struct {
	Router   *daemon
	Backends []*daemon
	// Setup is the time from launching the daemons to every /healthz
	// answering OK.
	Setup time.Duration
}

// backends is the number of gcserved processes behind the router.
const backends = 2

// FleetConfig says how to launch a fleet.
type FleetConfig struct {
	BinDir  string // holds the gcserved and gcrouter binaries
	Dataset string // dataset file every backend loads
	WorkDir string // daemon logs and write-ahead logs go here
	Journal bool   // give each backend a write-ahead log (-journal)
}

// freePort asks the kernel for an ephemeral loopback port, which the
// daemon about to launch then binds.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("picking a port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// StartFleet launches the backends, waits until both answer /healthz,
// then launches the router and waits for its /healthz, as an operator
// would bring the tier up. (A router launched alongside its backends
// first sees them refuse connections, opens their breakers and only
// re-admits them after its cool-down, which would time the breaker
// rather than the daemons.) On error every process already started is
// stopped.
func StartFleet(ctx context.Context, cfg FleetConfig, id int) (*Fleet, error) {
	f := &Fleet{}
	start := time.Now()
	deadline := start.Add(90 * time.Second)
	var addrs []string
	for i := 0; i < backends; i++ {
		addr, err := freePort()
		if err != nil {
			f.Stop()
			return nil, err
		}
		args := []string{"-dataset", cfg.Dataset, "-method", "ggsx", "-addr", addr, "-log-json"}
		if cfg.Journal {
			args = append(args, "-journal", filepath.Join(cfg.WorkDir, fmt.Sprintf("fleet%d-b%d.wal", id, i)))
		}
		d, err := launch(fmt.Sprintf("fleet%d-gcserved%d", id, i), addr, cfg, "gcserved", args...)
		if err != nil {
			f.Stop()
			return nil, err
		}
		f.Backends = append(f.Backends, d)
		addrs = append(addrs, addr)
	}
	for _, d := range f.Backends {
		if err := d.waitHealthy(ctx, deadline); err != nil {
			f.Stop()
			return nil, err
		}
	}
	raddr, err := freePort()
	if err == nil {
		f.Router, err = launch(fmt.Sprintf("fleet%d-gcrouter", id), raddr, cfg, "gcrouter",
			"-backends", strings.Join(addrs, ","), "-mode", "replicate", "-addr", raddr, "-log-json")
	}
	if err == nil {
		err = f.Router.waitHealthy(ctx, deadline)
	}
	if err != nil {
		f.Stop()
		return nil, err
	}
	f.Setup = time.Since(start)
	return f, nil
}

func launch(name, addr string, cfg FleetConfig, bin string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(cfg.WorkDir, name+".log"))
	if err != nil {
		return nil, fmt.Errorf("creating %s log: %w", name, err)
	}
	cmd := exec.Command(filepath.Join(cfg.BinDir, bin), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the daemon should the benchmark itself die.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, addr: addr, cmd: cmd, logf: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported through the health check
		close(d.exited)
	}()
	return d, nil
}

// waitHealthy polls /healthz until it answers OK, the process exits or
// the deadline passes.
func (d *daemon) waitHealthy(ctx context.Context, deadline time.Time) error {
	cl := server.NewClientWith(d.addr, server.ClientOptions{RequestTimeout: time.Second})
	for {
		if err := cl.Healthz(ctx); err == nil {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited during set-up:\n%s", d.name, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy in time:\n%s", d.name, d.logTail())
		}
	}
}

// logTail returns the last lines of the daemon's log for an error report.
func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.logf.Name()) // best effort: the log only decorates an error
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// stop sends SIGTERM, and SIGKILL if the daemon has not exited within
// ten seconds, then waits for it.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.logf.Close()
}

// Stop tears the fleet down: router first, then the backends.
func (f *Fleet) Stop() {
	f.Router.stop()
	for _, b := range f.Backends {
		b.stop()
	}
}

func (f *Fleet) daemons() []*daemon {
	return append([]*daemon{f.Router}, f.Backends...)
}

// CPUTime sums the user and system CPU time of the fleet's daemons,
// read from /proc/<pid>/stat.
func (f *Fleet) CPUTime() (time.Duration, error) {
	var total time.Duration
	for _, d := range f.daemons() {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("reading %s CPU time: %w", d.name, err)
		}
		// Fields after the parenthesised command name start at field 3
		// (state); utime and stime are fields 14 and 15, in clock ticks
		// of 1/100 s on Linux.
		s := string(data)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 13 {
			return 0, fmt.Errorf("reading %s CPU time: short stat line", d.name)
		}
		for _, fld := range fields[11:13] {
			ticks, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("reading %s CPU time: %w", d.name, err)
			}
			total += time.Duration(ticks) * 10 * time.Millisecond
		}
	}
	return total, nil
}

// PeakRSS sums the daemons' peak resident set sizes (VmHWM), in bytes.
func (f *Fleet) PeakRSS() (int64, error) {
	var total int64
	for _, d := range f.daemons() {
		fh, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("reading %s peak RSS: %w", d.name, err)
		}
		sc := bufio.NewScanner(fh)
		found := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err == nil {
					total += kb << 10
					found = true
				}
				break
			}
		}
		fh.Close()
		if !found {
			return 0, fmt.Errorf("reading %s peak RSS: no VmHWM line", d.name)
		}
	}
	return total, nil
}

// Metrics is one scrape of every daemon's GET /metrics.
type Metrics struct {
	Router   []telemetry.Sample
	Backends [][]telemetry.Sample
}

// Scrape reads /metrics from the router and every backend.
func (f *Fleet) Scrape(ctx context.Context) (Metrics, error) {
	var m Metrics
	var err error
	if m.Router, err = scrape(ctx, f.Router.addr); err != nil {
		return m, err
	}
	for _, b := range f.Backends {
		s, err := scrape(ctx, b.addr)
		if err != nil {
			return m, err
		}
		m.Backends = append(m.Backends, s)
	}
	return m, nil
}

func scrape(ctx context.Context, addr string) ([]telemetry.Sample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", addr, err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: %s", addr, res.Status)
	}
	samples, err := telemetry.ParseProm(res.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", addr, err)
	}
	return samples, nil
}

// sumSamples adds up every sample called name whose labels include all
// of want.
func sumSamples(samples []telemetry.Sample, name string, want map[string]string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			total += s.Value
		}
	}
	return total
}
