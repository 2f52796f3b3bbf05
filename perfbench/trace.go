package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/csvio"
	"icewafl/internal/netstream"
	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// Span names: one per call into a module's public functions, in the
// order the served path makes them.
const (
	spConfigBuild    = iota // config.Parse + Build + ValidateAttrs
	spCSVRead               // csvio reader Next / ReadBatch
	spRunner                // core runner Next (parent of spCSVRead)
	spCSVWrite              // csvio.Writer.Write (the CLI's sink)
	spEncodeTuple           // netstream.EncodeTuple
	spEncodeFrame           // netstream.EncodeFrame of a tuple frame (timed apart; see framePass)
	spWALAppend             // a write or fsync of the WAL's files (inside Hub.Publish)
	spPublish               // netstream.Hub.Publish: EncodeFrame, WAL.Append, ring, fan-out
	spRecv                  // netstream.Subscriber.Recv (includes waiting)
	spDecodeTuple           // netstream.DecodeFrame + DecodeTuple
	spEncodeColbatch        // netstream.EncodeColumnBatch + EncodeFrame
	spDecodeColbatch        // netstream.DecodeFrame + DecodeColumnBatch
	spCheckpoint            // core.Checkpointer.Capture
	spReorder               // stream.BoundedReorder.Next (parent of spReorderIn)
	spReorderIn             // the reorder window's input
	spLogWrite              // core.Log.WriteJSON
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"config.build", "csvio.read", "core.runner", "csvio.write", "wire.encode_tuple",
	"wire.encode_frame", "wal.append", "hub.publish", "hub.recv", "wire.decode_tuple", "wire.encode_colbatch",
	"wire.decode_colbatch", "core.checkpoint", "stream.reorder", "stream.reorder_input",
	"core.log_write",
}

// span is one timed call. Spans of one tuple share its id (the frame
// sequence number); parent indexes the enclosing span of the same
// goroutine, -1 at top level.
type span struct {
	name       uint8
	parent     int32
	id         uint64
	start, end int64 // ns since the tracer's base
}

// tracer records spans of one goroutine in memory. A tracer that is off
// records nothing, so the same code runs untraced for the overhead
// ratio.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
	stack []int32
}

func newTracer(on bool, base time.Time, capacity int) *tracer {
	t := &tracer{on: on, base: base}
	if on {
		t.spans = make([]span, 0, capacity)
	}
	return t
}

func (t *tracer) begin(name int, id uint64) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: uint8(name), parent: parent, id: id, start: int64(time.Since(t.base))})
	i := int32(len(t.spans) - 1)
	t.stack = append(t.stack, i)
	return i
}

// currentID is the id of the innermost open span (0 at top level).
func (t *tracer) currentID() uint64 {
	if n := len(t.stack); n > 0 {
		return t.spans[t.stack[n-1]].id
	}
	return 0
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.base))
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStats aggregates spans per name.
type spanStats struct {
	self  [numSpanNames]int64
	count [numSpanNames]int
	durs  [numSpanNames][]float64 // ns, for the names whose percentiles are reported
}

// add folds one tracer in. A span's self time is its duration minus the
// time its child spans cover. The WAL's writes and fsyncs under one
// publish add up to that append's duration.
func (st *spanStats) add(t *tracer) {
	child := make([]int64, len(t.spans))
	walByParent := make(map[int32]int64)
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
		if s.name == spWALAppend {
			walByParent[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		st.self[s.name] += d - child[i]
		st.count[s.name]++
		switch s.name {
		case spConfigBuild, spCheckpoint:
			st.durs[s.name] = append(st.durs[s.name], float64(d))
		}
	}
	for _, d := range walByParent {
		st.durs[spWALAppend] = append(st.durs[spWALAppend], float64(d))
	}
}

// perCall is a name's mean self time per call in ns.
func (st *spanStats) perCall(name int) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return float64(st.self[name]) / float64(st.count[name])
}

// tracedSource times a source's Next as a csvio.read (or other) span.
type tracedSource struct {
	src  stream.Source
	tr   *tracer
	name int
	n    uint64
}

func (s *tracedSource) Schema() *stream.Schema { return s.src.Schema() }

func (s *tracedSource) Next() (stream.Tuple, error) {
	sp := s.tr.begin(s.name, s.n)
	t, err := s.src.Next()
	s.tr.end(sp)
	s.n++
	return t, err
}

// tracedBatchSource keeps the reader's batch face visible, so the
// columnar runner still ingests batch-natively.
type tracedBatchSource struct {
	tracedSource
	br stream.ColumnBatchReader
}

func (s *tracedBatchSource) ReadBatch(dst *stream.ColumnBatch, max int) (int, error) {
	sp := s.tr.begin(s.name, s.n)
	n, err := s.br.ReadBatch(dst, max)
	s.tr.end(sp)
	s.n += uint64(n)
	return n, err
}

// timedFS hands the WAL files whose writes and fsyncs are wal.append
// spans of tr while on is set. The daemon's WAL is attached to its hub,
// so these spans nest inside the hub.publish span that caused them.
type timedFS struct {
	netstream.FS
	tr *tracer
	on *bool
}

func (fs timedFS) OpenFile(name string, flag int, perm os.FileMode) (netstream.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: fs}, nil
}

type timedFile struct {
	netstream.File
	fs timedFS
}

func (f *timedFile) span() int32 {
	if !*f.fs.on {
		return -1
	}
	return f.fs.tr.begin(spWALAppend, f.fs.tr.currentID())
}

func (f *timedFile) Write(p []byte) (int, error) {
	sp := f.span()
	n, err := f.File.Write(p)
	f.fs.tr.end(sp)
	return n, err
}

func (f *timedFile) Sync() error {
	sp := f.span()
	err := f.File.Sync()
	f.fs.tr.end(sp)
	return err
}

// replicaShape is the served path a workload's inputs take.
type replicaShape struct {
	reorder      int
	columnar     bool // csvio.ColumnReader + RunStreamColumnar
	checkpointed bool // RunStreamCheckpointed with a capture every checkpointEvery tuples
}

// checkpointEvery and colbatchRows are the daemon defaults
// (config.ServeSpec.Normalize).
const (
	checkpointEvery = 256
	colbatchRows    = 256
)

// openRunner reads input with the shape's csvio reader, each read a
// csvio.read span of tr, and returns the shape's runner over it.
func openRunner(j *job, proc *core.Process, input []byte, shape replicaShape, tr *tracer) (stream.Source, *core.Log, *core.Checkpointer, error) {
	var src stream.Source
	if shape.columnar {
		cr, err := csvio.NewColumnReader(bytes.NewReader(input), j.schema)
		if err != nil {
			return nil, nil, nil, err
		}
		// Keeping the batch face visible lets the columnar runner ingest
		// batch-natively.
		src = &tracedBatchSource{tracedSource{src: cr, tr: tr, name: spCSVRead}, cr}
	} else {
		rd, err := csvio.NewReader(bytes.NewReader(input), j.schema)
		if err != nil {
			return nil, nil, nil, err
		}
		src = &tracedSource{src: rd, tr: tr, name: spCSVRead}
	}
	switch {
	case shape.checkpointed:
		return proc.RunStreamCheckpointed(src, nil)
	case shape.columnar:
		polluted, plog, err := proc.RunStreamColumnar(src, shape.reorder)
		return polluted, plog, nil, err
	default:
		polluted, plog, err := proc.RunStream(src, shape.reorder)
		return polluted, plog, nil, err
	}
}

// replicaOut is what one replica run measured.
type replicaOut struct {
	wall                  time.Duration
	tuplesIn, tuplesOut   int
	logEntries            int
	tupleBytes            int
	colbatchBytes, cbRows int
	ckBytes               []float64
	walFsyncs             uint64
	walBytes              int64
	dropped               uint64
	decoded               []stream.Tuple
	tracers               []*tracer
}

// runReplica drives input through the served path's public functions in
// order — csvio reader, runner, csvio writer, EncodeTuple, Hub.Publish
// (which encodes the frame and appends it to the hub's WAL, as in the
// daemon) → Subscribe/Recv → DecodeFrame/DecodeTuple,
// EncodeColumnBatch/DecodeColumnBatch per colbatch and
// Checkpointer.Capture — with spans around each call when traced.
func runReplica(j *job, input []byte, shape replicaShape, traced bool, dir string) (*replicaOut, error) {
	proc, err := j.process()
	if err != nil {
		return nil, err
	}
	base := time.Now()
	prod := newTracer(traced, base, 1<<18)
	cons := newTracer(traced, base, 1<<17)
	out := &replicaOut{tracers: []*tracer{prod, cons}}

	polluted, plog, ckr, err := openRunner(j, proc, input, shape, prod)
	if err != nil {
		return nil, err
	}
	walTimed := false
	wal, err := netstream.OpenWAL(dir, netstream.WALOptions{FS: timedFS{FS: netstream.OSFS(), tr: prod, on: &walTimed}})
	if err != nil {
		return nil, err
	}
	defer func() {
		walTimed = false
		wal.Close()
	}()
	hub := netstream.NewHubNamed([]string{netstream.ChannelDirty}, 256, 1<<16, netstream.PolicyBlock, obs.NewRegistry())
	defer hub.Close()
	if err := hub.AttachWAL(netstream.ChannelDirty, wal); err != nil {
		return nil, err
	}
	walTimed = true
	sub, err := hub.Subscribe(netstream.ChannelDirty, 0)
	if err != nil {
		return nil, err
	}

	consumed := make(chan error, 1)
	go func() {
		consumed <- func() error {
			for seq := uint64(1); ; seq++ {
				sp := cons.begin(spRecv, seq)
				data, terminal, err := sub.Recv()
				cons.end(sp)
				if err != nil {
					return err
				}
				if terminal {
					return nil
				}
				out.tupleBytes += len(data)
				sp = cons.begin(spDecodeTuple, seq)
				f, err := netstream.DecodeFrame(data)
				var t stream.Tuple
				if err == nil {
					t, err = netstream.DecodeTuple(f.Tuple, j.schema)
				}
				cons.end(sp)
				if err != nil {
					return err
				}
				out.decoded = append(out.decoded, t)
			}
		}()
	}()

	var csvOut bytes.Buffer
	csvw := csvio.NewWriter(&csvOut, j.schema)
	batch := stream.NewColumnBatch(j.schema, colbatchRows)
	flushBatch := func(seq uint64) error {
		if batch.Len() == 0 {
			return nil
		}
		sp := prod.begin(spEncodeColbatch, seq)
		payload, err := netstream.EncodeFrame(&netstream.Frame{Type: netstream.FrameColBatch, Channel: netstream.ChannelDirty, Seq: seq, Batch: netstream.EncodeColumnBatch(batch)})
		prod.end(sp)
		if err != nil {
			return err
		}
		sp = prod.begin(spDecodeColbatch, seq)
		f, err := netstream.DecodeFrame(payload)
		if err == nil {
			_, err = netstream.DecodeColumnBatch(f.Batch, j.schema)
		}
		prod.end(sp)
		out.colbatchBytes += len(payload)
		out.cbRows += batch.Len()
		batch.Reset()
		return err
	}

	start := time.Now()
	seq := uint64(0)
	for {
		sp := prod.begin(spRunner, seq+1)
		t, err := polluted.Next()
		prod.end(sp)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		seq++
		sp = prod.begin(spCSVWrite, seq)
		err = csvw.Write(t)
		prod.end(sp)
		if err != nil {
			return nil, err
		}
		sp = prod.begin(spEncodeTuple, seq)
		wt := netstream.EncodeTuple(t)
		prod.end(sp)
		sp = prod.begin(spPublish, seq)
		err = hub.Publish(netstream.ChannelDirty, &netstream.Frame{Type: netstream.FrameTuple, Tuple: wt})
		prod.end(sp)
		if err != nil {
			return nil, err
		}
		if err := batch.AppendTuple(t); err != nil {
			return nil, err
		}
		if batch.Len() == colbatchRows {
			if err := flushBatch(seq); err != nil {
				return nil, err
			}
		}
		if ckr != nil && seq%checkpointEvery == 0 {
			sp = prod.begin(spCheckpoint, seq)
			ck, err := ckr.Capture()
			prod.end(sp)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(ck)
			if err != nil {
				return nil, err
			}
			out.ckBytes = append(out.ckBytes, float64(len(b)))
		}
	}
	if err := flushBatch(seq); err != nil {
		return nil, err
	}
	sp := prod.begin(spPublish, seq+1)
	err = hub.Publish(netstream.ChannelDirty, &netstream.Frame{Type: netstream.FrameEOF})
	prod.end(sp)
	if err != nil {
		return nil, err
	}
	if err := <-consumed; err != nil {
		return nil, err
	}
	if err := csvw.Flush(); err != nil {
		return nil, err
	}
	sp = prod.begin(spLogWrite, 0)
	err = plog.WriteJSON(io.Discard)
	prod.end(sp)
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(start)
	out.tuplesIn = bytes.Count(input, []byte{'\n'}) - 1
	out.tuplesOut = int(seq)
	out.logEntries = plog.Len()
	out.walFsyncs = wal.Fsyncs()
	out.walBytes = wal.SizeBytes()
	out.dropped = sub.Dropped()
	if len(out.decoded) != out.tuplesOut {
		return nil, fmt.Errorf("replica hub delivered %d of %d frames", len(out.decoded), out.tuplesOut)
	}
	return out, nil
}

// checkpointPass measures Checkpointer.Capture on inputs whose served
// path is not checkpointed: a checkpointed runner over the same input,
// capturing every checkpointEvery tuples as the durable daemon does.
func checkpointPass(j *job, input []byte, tr *tracer) ([]float64, error) {
	proc, err := j.process()
	if err != nil {
		return nil, err
	}
	polluted, _, ckr, err := openRunner(j, proc, input, replicaShape{checkpointed: true}, newTracer(false, time.Now(), 0))
	if err != nil {
		return nil, err
	}
	var sizes []float64
	for n := uint64(1); ; n++ {
		if _, err := polluted.Next(); err == io.EOF {
			return sizes, nil
		} else if err != nil {
			return nil, err
		}
		if n%checkpointEvery == 0 {
			sp := tr.begin(spCheckpoint, n)
			ck, err := ckr.Capture()
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			b, err := json.Marshal(ck)
			if err != nil {
				return nil, err
			}
			sizes = append(sizes, float64(len(b)))
		}
	}
}

// reorderPass times the bounded reorder window over the served tuples,
// separating the window's own cost from its input's.
func reorderPass(j *job, tuples []stream.Tuple, window int, tr *tracer) error {
	in := &tracedSource{src: stream.FromBatches(j.schema, [][]stream.Tuple{tuples}), tr: tr, name: spReorderIn}
	r := stream.NewBoundedReorder(in, window)
	for n := uint64(0); ; n++ {
		sp := tr.begin(spReorder, n)
		_, err := r.Next()
		tr.end(sp)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// framePass times EncodeFrame on the tuple frames the replica published.
// Hub.Publish encodes each frame under its lock, where no span can reach;
// encoding the same frames again here is how the trace tells the frame
// codec's share of hub.publish apart from the hub's own work.
func framePass(tuples []stream.Tuple, tr *tracer) error {
	for i, t := range tuples {
		seq := uint64(i + 1)
		f := &netstream.Frame{Type: netstream.FrameTuple, Channel: netstream.ChannelDirty, Seq: seq, Tuple: netstream.EncodeTuple(t)}
		sp := tr.begin(spEncodeFrame, seq)
		_, err := netstream.EncodeFrame(f)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// configPass times compiling the configuration.
func configPass(j *job, tr *tracer, n int) error {
	for i := 0; i < n; i++ {
		sp := tr.begin(spConfigBuild, uint64(i))
		_, err := j.process()
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// codecAllocs counts heap allocations per tuple of the tuple-frame
// encode (EncodeTuple + EncodeFrame) and decode (DecodeFrame +
// DecodeTuple).
func codecAllocs(j *job, tuples []stream.Tuple) (enc, dec float64, err error) {
	payloads := make([][]byte, len(tuples))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, t := range tuples {
		if payloads[i], err = netstream.EncodeFrame(&netstream.Frame{Type: netstream.FrameTuple, Tuple: netstream.EncodeTuple(t)}); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	enc = float64(m1.Mallocs-m0.Mallocs) / float64(len(tuples))
	runtime.ReadMemStats(&m0)
	for _, p := range payloads {
		f, err := netstream.DecodeFrame(p)
		if err != nil {
			return 0, 0, err
		}
		if _, err := netstream.DecodeTuple(f.Tuple, j.schema); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	dec = float64(m1.Mallocs-m0.Mallocs) / float64(len(payloads))
	return enc, dec, nil
}

// pipelineWall times reader → runner → drain with Process.Obs set to a
// registry (withObs) or nil.
func pipelineWall(j *job, input []byte, shape replicaShape, withObs bool) (time.Duration, error) {
	proc, err := j.process()
	if err != nil {
		return 0, err
	}
	if withObs {
		proc.Obs = obs.NewRegistry()
	}
	start := time.Now()
	polluted, _, _, err := openRunner(j, proc, input, shape, newTracer(false, start, 0))
	if err != nil {
		return 0, err
	}
	for {
		if _, err := polluted.Next(); err == io.EOF {
			return time.Since(start), nil
		} else if err != nil {
			return 0, err
		}
	}
}

// prefixRows cuts a CSV input to its header and first n rows.
func prefixRows(input []byte, n int) []byte {
	end, lines := 0, 0
	for end < len(input) && lines <= n {
		i := bytes.IndexByte(input[end:], '\n')
		if i < 0 {
			return input
		}
		end += i + 1
		lines++
	}
	return input[:end]
}

// traceLayers is the traced run: short probes of the other served
// workloads (so every layer is measured on this workload's seed), the
// replica traced and untraced, and the per-layer metrics.
func traceLayers(opts options, j *job, rep *report, e2e *workloadResult) error {
	sess := e2e.sessions
	sessScrape := e2e
	if sess == nil {
		probe, err := runSessionsWorkload(opts, j, rep, opts.sizes.probeRows, 0)
		if err != nil {
			return fmt.Errorf("sessions probe: %w", err)
		}
		sess, sessScrape = probe.sessions, probe
	}
	paced := e2e.paced
	if paced == nil {
		probe, err := runPacedWorkload(opts, j, rep, opts.sizes.pacedRate, opts.sizes.probePaced)
		if err != nil {
			return fmt.Errorf("paced probe: %w", err)
		}
		paced = probe.paced
	}
	netSend := e2e.scrapeNetSend
	if !e2e.daemon {
		netSend = sessScrape.scrapeNetSend
	}

	input := prefixRows(e2e.input, opts.sizes.replicaRows)
	shape := replicaShape{reorder: e2e.reorder, columnar: e2e.columnar, checkpointed: e2e.checkpointed}
	var tracedOut *replicaOut
	var walls [2][]float64 // untraced, traced
	for i := 0; i < 6; i++ {
		traced := i%2 == 1
		out, err := runReplica(j, input, shape, traced, filepath.Join(opts.work, fmt.Sprintf("replica-wal-%d", i)))
		if err != nil {
			return fmt.Errorf("replica: %w", err)
		}
		walls[i%2] = append(walls[i%2], float64(out.wall))
		if traced && tracedOut == nil {
			tracedOut = out
		}
	}
	aux := newTracer(true, time.Now(), 1<<12)
	ckBytes := tracedOut.ckBytes
	if !shape.checkpointed {
		var err error
		if ckBytes, err = checkpointPass(j, input, aux); err != nil {
			return err
		}
	}
	if err := reorderPass(j, tracedOut.decoded, shape.reorder, aux); err != nil {
		return err
	}
	if err := configPass(j, aux, 20); err != nil {
		return err
	}
	if err := framePass(tracedOut.decoded, aux); err != nil {
		return err
	}
	encAllocs, decAllocs, err := codecAllocs(j, tracedOut.decoded)
	if err != nil {
		return err
	}
	var obsRatios []float64
	for i := 0; i < 3; i++ {
		off, err := pipelineWall(j, input, shape, false)
		if err != nil {
			return err
		}
		on, err := pipelineWall(j, input, shape, true)
		if err != nil {
			return err
		}
		obsRatios = append(obsRatios, float64(on)/float64(off))
	}

	var st spanStats
	for _, t := range tracedOut.tracers {
		st.add(t)
	}
	wireNs, allNs := wireSelf(&st) // of the replica's own spans
	st.add(aux)
	// The frame encode inside Hub.Publish moves from hub to wire.
	frameNs := st.self[spEncodeFrame]
	share := 0.0
	if allNs > 0 {
		share = float64(wireNs+frameNs) / float64(allNs)
	}
	if err := writeSpans(filepath.Join(filepath.Dir(opts.work), "trace-"+opts.workload+".jsonl"), append(tracedOut.tracers, aux)); err != nil {
		return err
	}

	o := tracedOut
	nOut := float64(o.tuplesOut)
	rep.addLayer("csvio.read_ns_per_tuple", float64(st.self[spCSVRead])/float64(o.tuplesIn), "ns", o.tuplesIn)
	rep.addLayer("csvio.write_ns_per_tuple", st.perCall(spCSVWrite), "ns", st.count[spCSVWrite])
	rep.addLayer("config.build_ms", median(st.durs[spConfigBuild])/1e6, "ms", st.count[spConfigBuild])
	rep.addLayer("core.pollute_ns_per_tuple", float64(st.self[spRunner])/nOut, "ns", o.tuplesOut)
	rep.addLayer("core.log_entries_per_tuple", float64(o.logEntries)/float64(o.tuplesIn), "ratio", o.tuplesIn)
	rep.addLayer("core.log_write_ns_per_entry", float64(st.self[spLogWrite])/float64(o.logEntries), "ns", o.logEntries)
	rep.addLayer("stream.reorder_ns_per_tuple", st.perCall(spReorder), "ns", st.count[spReorder])
	rep.addLayer("core.checkpoint_capture_ms_p50", quantile(st.durs[spCheckpoint], 0.5)/1e6, "ms", st.count[spCheckpoint])
	rep.addLayer("core.checkpoint_capture_ms_p99", quantile(st.durs[spCheckpoint], 0.99)/1e6, "ms", st.count[spCheckpoint])
	rep.addLayer("core.checkpoint_bytes", median(ckBytes), "bytes", len(ckBytes))
	rep.addLayer("wire.encode_tuple_ns", st.perCall(spEncodeTuple)+st.perCall(spEncodeFrame), "ns", st.count[spEncodeTuple])
	rep.addLayer("wire.encode_colbatch_ns_per_row", float64(st.self[spEncodeColbatch])/float64(o.cbRows), "ns", o.cbRows)
	rep.addLayer("wire.decode_tuple_ns", st.perCall(spDecodeTuple), "ns", st.count[spDecodeTuple])
	rep.addLayer("wire.decode_colbatch_ns_per_row", float64(st.self[spDecodeColbatch])/float64(o.cbRows), "ns", o.cbRows)
	rep.addLayer("wire.encode_allocs_per_tuple", encAllocs, "count", len(o.decoded))
	rep.addLayer("wire.decode_allocs_per_tuple", decAllocs, "count", len(o.decoded))
	rep.addLayer("wire.bytes_per_row_tuple", float64(o.tupleBytes)/nOut, "bytes", o.tuplesOut)
	rep.addLayer("wire.bytes_per_row_colbatch", float64(o.colbatchBytes)/float64(o.cbRows), "bytes", o.cbRows)
	rep.addLayer("hub.publish_ns_per_frame", float64(st.self[spPublish]-frameNs)/float64(st.count[spPublish]), "ns", st.count[spPublish])
	rep.addLayer("hub.recv_ns_per_frame", st.perCall(spRecv), "ns", st.count[spRecv])
	rep.addLayer("hub.frames_dropped", float64(o.dropped), "count", o.tuplesOut)
	rep.addLayer("hub.deliver_mean_us", sessScrape.scrapeDeliver.meanUs, "us", sessScrape.scrapeDeliver.count)
	rep.addLayer("wal.append_us_p50", quantile(st.durs[spWALAppend], 0.5)/1e3, "us", len(st.durs[spWALAppend]))
	rep.addLayer("wal.append_us_p99", quantile(st.durs[spWALAppend], 0.99)/1e3, "us", len(st.durs[spWALAppend]))
	rep.addLayer("wal.fsyncs_per_ktuple", float64(o.walFsyncs)/nOut*1000, "count", o.tuplesOut)
	rep.addLayer("wal.bytes_per_tuple", float64(o.walBytes)/nOut, "bytes", o.tuplesOut)
	rep.addLayer("session.create_ms_p50", median(sess.createMs), "ms", len(sess.createMs))
	rep.addLayer("session.create_ms_max", maxOf(sess.createMs), "ms", len(sess.createMs))
	rep.addLayer("server.first_frame_ms", median(sess.firstFrameMs), "ms", len(sess.firstFrameMs))
	rep.addLayer("server.net_send_mean_us", netSend.meanUs, "us", netSend.count)
	rep.addLayer("client.next_ns_per_tuple", paced.clientNextNs, "ns", len(paced.lateMs))
	rep.addLayer("obs.overhead_ratio", median(obsRatios), "ratio", len(obsRatios))
	rep.addLayer("gen.late_p99_ms", quantile(paced.lateMs, 0.99), "ms", len(paced.lateMs))
	rep.addLayer("gen.late_max_ms", maxOf(paced.lateMs), "ms", len(paced.lateMs))
	rep.addLayer("trace.overhead_ratio", median(walls[1])/median(walls[0]), "ratio", len(walls[1]))
	rep.addLayer("trace.wire_self_share", share, "ratio", o.tuplesOut)
	return nil
}

// wireSelf is the wire encode+decode self time of the replica's spans
// and the self time of all of them, not counting the consumer's waits
// inside Recv.
func wireSelf(st *spanStats) (wire, all int64) {
	for name := 0; name < numSpanNames; name++ {
		switch name {
		case spRecv:
			continue
		case spEncodeTuple, spDecodeTuple, spEncodeColbatch, spDecodeColbatch:
			wire += st.self[name]
		}
		all += st.self[name]
	}
	return wire, all
}

// writeSpans writes every recorded span once, as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for g, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(bw, "{\"goroutine\":%d,\"span\":%d,\"parent\":%d,\"name\":%q,\"id\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
				g, i, s.parent, spanNames[s.name], s.id, s.start, s.end)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
