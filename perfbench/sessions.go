package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"icewafl/internal/netstream"
)

// sessionTenants are the two tenants of serve-sessions: alpha keeps the
// default serve settings (tuple frames), beta sets serve.columnar
// (colbatch frames), so a codec change that helps one encoding and
// costs the other shows.
var sessionTenants = []string{"alpha", "beta"}

// sessionsObs is what a sessions run observes at the control plane.
type sessionsObs struct {
	createMs     []float64 // POST /v1/sessions latency
	firstFrameMs []float64 // create until the first data frame decoded
}

// sessionOutcome is one session's create-subscribe-drain cycle.
type sessionOutcome struct {
	start, end   time.Time
	createMs     float64
	firstFrameMs float64
	decoded      int
	digest       string
}

// runSessionsWorkload is serve-sessions: icewafld -sessions runs
// sessions in pairs, one per tenant. Each pair creates its sessions
// over POST /v1/sessions, subscribes at once over HTTP NDJSON from seq
// 0, drains to EOF and deletes them; the pair window runs from create
// to the last EOF, so the pipelines run live. Run for another workload's
// traced run, it is a short probe whose observations feed the per-layer
// metrics only.
func runSessionsWorkload(opts options, j *job, rep *report, rows int, seconds time.Duration) (*workloadResult, error) {
	primary := opts.workload == wlSessions
	input, err := j.generateCSV(opts.seed, rows)
	if err != nil {
		return nil, err
	}
	ref, err := j.servedReference(input, servedReorder)
	if err != nil {
		return nil, err
	}
	if opts.corruptRef {
		ref.rows[0] ^= 1
	}
	specs := make(map[string]json.RawMessage, len(sessionTenants))
	for _, tenant := range sessionTenants {
		spec, err := sessionSpec(j, input, tenant == "beta")
		if err != nil {
			return nil, err
		}
		specs[tenant] = spec
	}
	args := []string{"-sessions", "-listen", "off", "-http", "127.0.0.1:0"}
	probeArgs := func(int) []string { return args }
	half := opts.sizes.setupProbes / 2
	var setup []float64
	if primary {
		if setup, err = probeDaemonSetup(opts.bin, 0, half, probeArgs); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(opts.bin, args...)
	if err != nil {
		return nil, err
	}
	setup = append(setup, d.setup.Seconds())
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	base := "http://" + d.http
	sobs := &sessionsObs{}
	var windows, rates []float64
	pairs := 0
	// The first pair is a warm-up: checked, but not in the figures.
	deadline := time.Now().Add(seconds)
	for pairs < 4 || time.Now().Before(deadline) {
		outs := make([]sessionOutcome, len(sessionTenants))
		var wg sync.WaitGroup
		name := fmt.Sprintf("p%04d", pairs)
		for i, tenant := range sessionTenants {
			wg.Add(1)
			go func(i int, tenant string) {
				defer wg.Done()
				outs[i] = runSession(base, j, ref, rep, tenant, name, specs[tenant])
			}(i, tenant)
		}
		wg.Wait()
		if outs[0].digest != outs[1].digest {
			rep.ops(1, 1, "alpha and beta decoded different dirty streams")
		} else {
			rep.ops(1, 0, "")
		}
		start, end, decoded := outs[0].start, outs[0].end, 0
		for _, o := range outs {
			if o.start.Before(start) {
				start = o.start
			}
			if o.end.After(end) {
				end = o.end
			}
			decoded += o.decoded
		}
		if pairs > 0 {
			for _, o := range outs {
				sobs.createMs = append(sobs.createMs, o.createMs)
				sobs.firstFrameMs = append(sobs.firstFrameMs, o.firstFrameMs)
			}
			w := end.Sub(start)
			windows = append(windows, ms(w))
			rates = append(rates, float64(decoded)/w.Seconds())
		}
		pairs++
	}
	snap, err := d.scrape()
	if err != nil {
		return nil, err
	}
	u := d.stop()
	d = nil
	if primary {
		after, err := probeDaemonSetup(opts.bin, half, opts.sizes.setupProbes, probeArgs)
		if err != nil {
			return nil, err
		}
		setup = append(setup, after...)
	}

	res := &workloadResult{input: input, reorder: servedReorder, daemon: true, sessions: sobs}
	res.scrapeDeliver = scrapeMean(snap, "deliver")
	res.scrapeNetSend = scrapeMean(snap, "net_send")
	if !primary {
		return res, nil
	}
	addScrape(rep, snap)
	inputTuples := float64(pairs * len(sessionTenants) * rows)
	n := len(windows)
	rep.addE2E("setup_s", median(setup), "s", len(setup))
	rep.addE2E("tuples_per_s", median(rates), "1/s", n)
	rep.addInfo("deliver_p50_ms", median(windows), "ms", n)
	rep.addInfo("deliver_p99_ms", quantile(windows, 0.99), "ms", n)
	rep.addE2E("cpu_ms_per_ktuple", ms(u.cpu)/inputTuples*1000, "ms", int(inputTuples))
	rep.addE2E("peak_rss_mb", float64(u.maxRSSKB)/1024, "MB", 1)
	return res, nil
}

// sessionSpec renders the POST /v1/sessions spec: the shared schema and
// configuration (with serve.columnar for the colbatch tenant) and the
// CSV input inline.
func sessionSpec(j *job, input []byte, columnar bool) (json.RawMessage, error) {
	var cfg map[string]any
	if err := json.Unmarshal(j.configJSON, &cfg); err != nil {
		return nil, err
	}
	if columnar {
		cfg["serve"] = map[string]any{"columnar": true}
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"schema": json.RawMessage(j.schemaJSON),
		"config": json.RawMessage(cfgJSON),
		"csv":    string(input),
	})
}

// runSession creates one session, drains its dirty channel over NDJSON,
// checks every decoded row against ref and deletes the session. Every
// failure is folded into rep: the create, the subscription and each
// expected row are operations.
func runSession(base string, j *job, ref *servedRef, rep *report, tenant, name string, spec json.RawMessage) sessionOutcome {
	out := sessionOutcome{}
	rows := len(ref.rows)
	body, err := json.Marshal(netstream.SessionRequest{Tenant: tenant, Name: name, Spec: spec})
	if err != nil {
		rep.ops(rows+2, rows+2, err.Error())
		return out
	}
	out.start = time.Now()
	out.end = out.start
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		rep.ops(rows+2, rows+2, "create: "+err.Error())
		return out
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.createMs = ms(time.Since(out.start))
	if resp.StatusCode != http.StatusCreated {
		rep.ops(rows+2, rows+2, fmt.Sprintf("create %s/%s: HTTP %d: %s", tenant, name, resp.StatusCode, bytes.TrimSpace(msg)))
		return out
	}
	rep.ops(1, 0, "")
	defer deleteSession(base, rep, tenant, name)

	chk := newStreamCheck(ref)
	subFailed := drainNDJSON(base+"/stream?from_seq=0&channel="+tenant+"/"+name+"/dirty", j, chk, &out)
	out.end = time.Now()
	failedSub := 0
	if subFailed != "" {
		failedSub = 1
		rep.problem("%s/%s: %s", tenant, name, subFailed)
	}
	rep.ops(1, failedSub, "subscription")
	rep.ops(rows, chk.failures(), fmt.Sprintf("%s/%s dirty rows differ from the RunStream reference", tenant, name))
	out.decoded = chk.pos
	out.digest = chk.digest()
	return out
}

// drainNDJSON reads one NDJSON subscription to its terminal frame,
// decoding every data frame. It returns a description of a failed
// subscription, or "" when the stream ended with eof.
func drainNDJSON(url string, j *job, chk *streamCheck, out *sessionOutcome) string {
	resp, err := http.Get(url)
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), netstream.MaxFrameBytes)
	for sc.Scan() {
		f, err := netstream.DecodeFrame(sc.Bytes())
		if err != nil {
			return err.Error()
		}
		switch f.Type {
		case netstream.FrameHello:
		case netstream.FrameTuple:
			t, err := netstream.DecodeTuple(f.Tuple, j.schema)
			if err != nil {
				return err.Error()
			}
			chk.add(t)
		case netstream.FrameColBatch:
			ts, err := netstream.DecodeColumnBatch(f.Batch, j.schema)
			if err != nil {
				return err.Error()
			}
			for _, t := range ts {
				chk.add(t)
			}
		case netstream.FrameEOF:
			return ""
		case netstream.FrameError:
			if f.Quota != nil {
				return "quota: " + f.Error
			}
			return "error frame: " + f.Error
		default:
			return "unexpected frame type " + f.Type
		}
		if out.firstFrameMs == 0 && chk.pos > 0 {
			out.firstFrameMs = ms(time.Since(out.start))
		}
	}
	if err := sc.Err(); err != nil {
		return err.Error()
	}
	return "stream ended without eof"
}

// deleteSession stops a session over DELETE /v1/sessions/{tenant}/{name}.
func deleteSession(base string, rep *report, tenant, name string) {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+tenant+"/"+name, nil)
	if err != nil {
		rep.problem("delete %s/%s: %v", tenant, name, err)
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		rep.problem("delete %s/%s: %v", tenant, name, err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rep.problem("delete %s/%s: HTTP %d", tenant, name, resp.StatusCode)
	}
}
