package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"icewafl/internal/obs"
)

// usage is a finished child's resource use, from its rusage.
type usage struct {
	cpu      time.Duration // user + system
	maxRSSKB int64
}

func usageOf(cmd *exec.Cmd) usage {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSSKB: int64(ru.Maxrss)}
}

// childAttr makes the kernel kill a child if the benchmark itself dies,
// so no SUT outlives a failed run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// daemon is a running icewafld child.
type daemon struct {
	cmd   *exec.Cmd
	tcp   string
	http  string
	setup time.Duration // exec until the announce line

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
	done chan struct{}
}

// startDaemon execs icewafld and waits for its announce line
// ("... listening tcp=ADDR http=ADDR ...").
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(bin, "icewafld"), args...)
	cmd.SysProcAttr = childAttr()
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	type announce struct {
		line string
		at   time.Time
	}
	ready := make(chan announce, 1)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(pipe)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if !announced && strings.Contains(line, "listening tcp=") {
				announced = true
				ready <- announce{line, time.Now()}
			}
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
	}()
	select {
	case a := <-ready:
		d.setup = a.at.Sub(start)
		for _, field := range strings.Fields(a.line) {
			if v, ok := strings.CutPrefix(field, "tcp="); ok {
				d.tcp = v
			}
			if v, ok := strings.CutPrefix(field, "http="); ok {
				d.http = v
			}
		}
		return d, nil
	case <-d.done:
		_ = cmd.Wait()
		return nil, fmt.Errorf("icewafld exited before announcing: %s", d.stderrTail())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("icewafld did not announce within 30s: %s", d.stderrTail())
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop asks the daemon to drain and exit (SIGTERM), kills it if it has
// not exited within 15s, waits for it and returns its resource use.
func (d *daemon) stop() usage {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(15*time.Second, func() { _ = d.cmd.Process.Kill() })
	<-d.done
	_ = d.cmd.Wait() // exit status 1 only reports an expired drain
	timer.Stop()
	return usageOf(d.cmd)
}

// kill ends the daemon at once and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.cmd.Wait()
}

// scrape reads the daemon's /metrics exposition (read-only).
func (d *daemon) scrape() (*obs.Snapshot, error) {
	resp, err := http.Get("http://" + d.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return obs.ParsePrometheus(resp.Body)
}

// probeDaemonSetup starts icewafld for i in [from, to) with argsFor(i)
// and returns each exec-to-announce time. Workloads take half of their
// probes before and half after the measured work, so that drift within a
// run reaches the median from both sides.
func probeDaemonSetup(bin string, from, to int, argsFor func(i int) []string) ([]float64, error) {
	// The load process's own background GC and scavenging must not share
	// the CPUs with the SUT while it starts.
	debug.FreeOSMemory()
	var out []float64
	for i := from; i < to; i++ {
		d, err := startDaemon(bin, argsFor(i)...)
		if err != nil {
			return nil, err
		}
		d.kill()
		out = append(out, d.setup.Seconds())
	}
	return out, nil
}

// runCLI runs icewafl to completion and returns its wall time and usage.
func runCLI(bin string, args ...string) (time.Duration, usage, error) {
	cmd := exec.Command(filepath.Join(bin, "icewafl"), args...)
	cmd.SysProcAttr = childAttr()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return wall, usage{}, fmt.Errorf("icewafl: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return wall, usageOf(cmd), nil
}

// stageTotals reports one stage histogram's count and sum from a scrape.
func stageTotals(snap *obs.Snapshot, stage string) (count uint64, sum time.Duration) {
	if snap == nil {
		return 0, 0
	}
	h, ok := snap.Histograms[stage]
	if !ok {
		return 0, 0
	}
	return h.Count, time.Duration(h.SumNs)
}

// scrapeMean is a scraped stage's mean duration in microseconds.
func scrapeMean(snap *obs.Snapshot, stage string) stageMean {
	n, sum := stageTotals(snap, stage)
	if n == 0 {
		return stageMean{}
	}
	return stageMean{meanUs: float64(sum) / float64(n) / 1e3, count: int(n)}
}

// addScrape prints the daemon's stage totals in the table.
func addScrape(rep *report, snap *obs.Snapshot) {
	for _, stage := range []string{"source", "pollute", "net_send", "wal_append", "deliver"} {
		n, sum := stageTotals(snap, stage)
		rep.addInfo("scrape."+stage+"_sum_ms", float64(sum)/1e6, "ms", int(n))
	}
}
