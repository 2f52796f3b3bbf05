package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"icewafl/internal/netstream"
	"icewafl/internal/obs"
)

// pacedObs is what a paced run observes at the load process.
type pacedObs struct {
	lateMs       []float64 // generator lateness per row
	clientNextNs float64   // ClientSource.Next per tuple on a full replay (traced runs)
}

// runPacedWorkload is serve-paced: the crash-safe single pipeline
// (icewafld -wal -checkpoint -reorder 1 -supervise) reads its input from
// a FIFO that this process writes on a fixed schedule (open loop: rate
// rows per second, whatever the daemon does). A ClientSource subscribes
// to the dirty channel and a raw TCP subscriber to the log; each row's
// latency runs from its due time at the generator until the subscriber
// decoded it, matched by No. With seconds shorter than the benchmark's
// run it is the short probe of another workload's traced run.
func runPacedWorkload(opts options, j *job, rep *report, rate int, seconds time.Duration) (*workloadResult, error) {
	primary := opts.workload == wlPaced
	rows := int(float64(rate) * seconds.Seconds())
	input, err := j.generateCSV(opts.seed, rows)
	if err != nil {
		return nil, err
	}
	ref, err := j.servedReference(input, 1)
	if err != nil {
		return nil, err
	}
	if opts.corruptRef {
		ref.rows[0] ^= 1
	}
	lines := bytes.SplitAfter(input, []byte{'\n'})
	header, body := lines[0], lines[1:1+rows]

	schemaPath, configPath, err := writeJobFiles(opts.work, j)
	if err != nil {
		return nil, err
	}
	headerPath := filepath.Join(opts.work, "paced-header.csv")
	if err := os.WriteFile(headerPath, header, 0o644); err != nil {
		return nil, err
	}
	argsFor := func(in, tag string) []string {
		return []string{"-schema", schemaPath, "-config", configPath, "-in", in,
			"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-wal", filepath.Join(opts.work, "wal-"+tag), "-checkpoint", filepath.Join(opts.work, "ck-"+tag+".json"),
			"-reorder", "1", "-supervise", "-drain-timeout", "2s"}
	}
	probeArgs := func(i int) []string { return argsFor(headerPath, fmt.Sprintf("probe%d", i)) }
	half := opts.sizes.setupProbes / 2
	var setup []float64
	if primary {
		if setup, err = probeDaemonSetup(opts.bin, 0, half, probeArgs); err != nil {
			return nil, err
		}
	}
	fifo := filepath.Join(opts.work, "paced.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		return nil, fmt.Errorf("mkfifo: %w", err)
	}
	defer os.Remove(fifo)
	pr, err := runPacedDaemon(opts.bin, argsFor(fifo, "main"), fifo, ref, header, body, rate, rep, opts.trace)
	if err != nil {
		return nil, err
	}
	setup = append(setup, pr.setup.Seconds())
	if primary {
		after, err := probeDaemonSetup(opts.bin, half, opts.sizes.setupProbes, probeArgs)
		if err != nil {
			return nil, err
		}
		setup = append(setup, after...)
	}

	res := &workloadResult{input: input, reorder: 1, checkpointed: true, daemon: true,
		paced: &pacedObs{lateMs: pr.lateMs, clientNextNs: pr.clientNextNs}}
	res.scrapeDeliver = scrapeMean(pr.snap, "deliver")
	res.scrapeNetSend = scrapeMean(pr.snap, "net_send")
	if !primary {
		return res, nil
	}
	addScrape(rep, pr.snap)
	if !opts.trace { // traced runs report these as per-layer metrics
		rep.addInfo("gen.late_p99_ms", quantile(pr.lateMs, 0.99), "ms", rows)
		rep.addInfo("gen.late_max_ms", maxOf(pr.lateMs), "ms", rows)
	}
	rep.addE2E("setup_s", median(setup), "s", len(setup))
	rep.addE2E("tuples_per_s", pr.rate, "1/s", rows)
	rep.addInfo("deliver_p50_ms", quantile(pr.latMs, 0.5), "ms", rows)
	rep.addInfo("deliver_p99_ms", quantile(pr.latMs, 0.99), "ms", rows)
	rep.addE2E("cpu_ms_per_ktuple", ms(pr.usage.cpu)/float64(rows)*1000, "ms", rows)
	rep.addE2E("peak_rss_mb", float64(pr.usage.maxRSSKB)/1024, "MB", 1)
	return res, nil
}

// pacedRun is what one paced daemon lifetime measured.
type pacedRun struct {
	setup         time.Duration
	usage         usage
	rate          float64 // rows decoded / (last decode - first due time)
	latMs, lateMs []float64
	clientNextNs  float64
	snap          *obs.Snapshot
}

// runPacedDaemon starts one durable daemon on fifo, feeds it body at
// rate rows per second, drains both subscriptions, checks them against
// ref and stops the daemon.
func runPacedDaemon(bin string, args []string, fifo string, ref *servedRef, header []byte, body [][]byte, rate int, rep *report, trace bool) (*pacedRun, error) {
	rows := len(body)
	d, err := startDaemon(bin, args...)
	if err != nil {
		return nil, err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	pr := &pacedRun{setup: d.setup}

	dirty, err := netstream.DialFrom(d.tcp, netstream.ChannelDirty, 0, 10*time.Second)
	if err != nil {
		return nil, err
	}
	logConn, err := subscribeRaw(d.tcp, netstream.ChannelLog)
	if err != nil {
		dirty.Stop()
		return nil, err
	}
	interval := time.Second / time.Duration(rate)
	w, err := openFIFOWriter(fifo, 30*time.Second)
	if err != nil {
		dirty.Stop()
		logConn.Close()
		return nil, err
	}
	// A daemon that stops reading must not hang the run on a full pipe.
	if err := w.SetWriteDeadline(time.Now().Add(time.Duration(rows)*interval + 60*time.Second)); err != nil {
		w.Close()
		dirty.Stop()
		logConn.Close()
		return nil, err
	}
	if _, err := w.Write(header); err != nil {
		w.Close()
		dirty.Stop()
		logConn.Close()
		return nil, err
	}

	// Row k (0-based) is due at t0 + k/rate: one row per interval.
	t0 := time.Now().Add(20 * time.Millisecond)
	due := func(k int) time.Time { return t0.Add(time.Duration(k) * interval) }

	chk := newStreamCheck(ref)
	pr.latMs = make([]float64, rows) // by input row
	seen := make([]int, rows+1)
	var lastDecode time.Time
	var dirtyErr, logErr error
	logFrames := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			t, err := dirty.Next()
			at := time.Now()
			if err == io.EOF {
				return
			}
			if err != nil {
				dirtyErr = err
				return
			}
			no, ok := t.At(0).AsInt()
			if !ok || no < 1 || int(no) > rows {
				dirtyErr = fmt.Errorf("decoded row without a valid No")
				return
			}
			seen[no]++
			pr.latMs[no-1] = ms(at.Sub(due(int(no) - 1)))
			lastDecode = at
			chk.add(t)
		}
	}()
	go func() {
		defer wg.Done()
		logFrames, logErr = drainLogFrames(logConn)
	}()

	pr.lateMs = make([]float64, 0, rows)
	var writeErr error
	runtime.LockOSThread()
	for k, row := range body {
		dk := due(k)
		waitUntil(dk)
		pr.lateMs = append(pr.lateMs, ms(time.Since(dk)))
		if _, err := w.Write(row); err != nil {
			writeErr = err
			break
		}
	}
	runtime.UnlockOSThread()
	if err := w.Close(); err != nil && writeErr == nil {
		writeErr = err
	}
	// Bound the drain: a stalled daemon must not hang the run.
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		dirty.Stop()
		logConn.Close()
		<-drained
		rep.problem("serve-paced: subscribers did not reach eof within 60s of the last row")
	}
	dirty.Stop()
	logConn.Close()

	if writeErr != nil {
		rep.problem("generator: %v", writeErr)
	}
	if dirtyErr != nil {
		rep.problem("dirty subscriber: %v", dirtyErr)
	}
	missing, dups := 0, 0
	for no := 1; no <= rows; no++ {
		switch {
		case seen[no] == 0:
			missing++
		case seen[no] > 1:
			dups += seen[no] - 1
		}
	}
	if missing+dups > 0 {
		rep.problem("serve-paced: %d rows missing, %d duplicated", missing, dups)
	}
	rep.ops(2, boolInt(dirtyErr != nil)+boolInt(logErr != nil), "subscriptions")
	rep.ops(rows, chk.failures(), "served dirty rows differ from the RunStream reference")
	logBad := 0
	if logFrames != ref.logEntries {
		logBad = 1
		rep.problem("log channel carried %d entries, reference has %d (%v)", logFrames, ref.logEntries, logErr)
	}
	rep.ops(1, logBad, "log entry count")
	pr.rate = float64(chk.pos) / lastDecode.Sub(t0).Seconds()

	if trace {
		if pr.clientNextNs, err = replayClientNext(d.tcp, rows); err != nil {
			return nil, err
		}
	}
	if pr.snap, err = d.scrape(); err != nil {
		return nil, err
	}
	pr.usage = d.stop()
	d = nil
	return pr, nil
}

// waitUntil returns at t. The caller runs on a locked OS thread, and
// nanosleep wakes it within tens of microseconds at the median, where
// time.Sleep rounds sub-millisecond waits up to the runtime's
// millisecond poll granularity and would make the generator, not the
// SUT, dominate the measured latency.
func waitUntil(t time.Time) {
	if wait := time.Until(t); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; lateness is measured
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// openFIFOWriter opens the FIFO's write end once the daemon's pipeline
// has opened the read end, failing after timeout instead of blocking
// forever on a daemon that never reads. The descriptor stays
// non-blocking, so writes wait in the runtime poller and honour
// deadlines.
func openFIFOWriter(path string, timeout time.Duration) (*os.File, error) {
	deadline := time.Now().Add(timeout)
	for {
		f, err := os.OpenFile(path, os.O_WRONLY|syscall.O_NONBLOCK, 0)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, syscall.ENXIO) || time.Now().After(deadline) {
			return nil, fmt.Errorf("open %s for writing: %w", path, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// subscribeRaw opens a raw TCP subscription from seq 0.
func subscribeRaw(addr, channel string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	req, err := json.Marshal(netstream.SubscribeRequest{Channel: channel})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := netstream.WriteFrame(conn, req); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// drainLogFrames reads raw log-channel frames until eof and counts the
// log entries.
func drainLogFrames(conn net.Conn) (int, error) {
	n := 0
	for {
		payload, err := netstream.ReadFrame(conn)
		if err != nil {
			return n, err
		}
		f, err := netstream.DecodeFrame(payload)
		if err != nil {
			return n, err
		}
		switch f.Type {
		case netstream.FrameHello:
		case netstream.FrameLog:
			n++
		case netstream.FrameEOF:
			return n, nil
		case netstream.FrameError:
			return n, fmt.Errorf("error frame: %s", f.Error)
		default:
			return n, fmt.Errorf("unexpected frame type %q on the log channel", f.Type)
		}
	}
}

// replayClientNext drains the finished dirty channel once more through a
// fresh ClientSource, as fast as it can, and returns the mean
// ClientSource.Next time per tuple — the client layer's cost without the
// generator's pacing in it.
func replayClientNext(addr string, rows int) (float64, error) {
	cs, err := netstream.DialFrom(addr, netstream.ChannelDirty, 0, 10*time.Second)
	if err != nil {
		return 0, err
	}
	defer cs.Stop()
	n := 0
	start := time.Now()
	for {
		_, err := cs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		n++
	}
	elapsed := time.Since(start)
	if n != rows {
		return 0, fmt.Errorf("replay delivered %d rows, want %d", n, rows)
	}
	return float64(elapsed.Nanoseconds()) / float64(n), nil
}
