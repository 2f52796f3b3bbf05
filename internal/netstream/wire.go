// Package netstream turns a compiled pollution process into a networked
// service: cmd/icewafld runs the pipeline once and streams its three
// outputs — the dirty stream D^p, the clean stream D, and the pollution
// log — to any number of subscribed clients, over raw TCP
// (length-prefixed JSON frames) or HTTP (NDJSON chunks or SSE). A
// ClientSource implements stream.Source over the wire, so pipelines can
// chain across processes and compose with stream.RetrySource for
// reconnect-with-backoff.
//
// The wire format is deliberately simple and debuggable: every frame is
// one JSON object. On TCP each frame is preceded by a 4-byte big-endian
// payload length; on HTTP each frame is one newline-terminated line
// (NDJSON) or one SSE data event. The first frame of every subscription
// is a hello carrying the stream schema (the schemafile document); tuple
// and log frames follow in sequence order; an eof or error frame is
// terminal. Frames carry a per-channel sequence number so a reconnecting
// client can resume exactly where it left off (subscribe with from_seq),
// as long as the server still retains that frame in its replay ring.
package netstream

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/jsonenc"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

// The three published channels.
const (
	// ChannelDirty carries the polluted stream D^p.
	ChannelDirty = "dirty"
	// ChannelClean carries the prepared clean stream D.
	ChannelClean = "clean"
	// ChannelLog carries the pollution log (ground truth).
	ChannelLog = "log"
)

// Channels lists every published channel.
func Channels() []string { return []string{ChannelDirty, ChannelClean, ChannelLog} }

// Frame types.
const (
	// FrameHello opens a subscription: it carries the stream schema.
	FrameHello = "hello"
	// FrameTuple carries one tuple (dirty or clean channel).
	FrameTuple = "tuple"
	// FrameLog carries one pollution-log entry (log channel).
	FrameLog = "log"
	// FrameColBatch carries a columnar micro-batch of tuples (dirty
	// channel in columnar serving mode). One frame consumes one sequence
	// number regardless of its row count; clients explode it back into
	// tuples locally.
	FrameColBatch = "colbatch"
	// FrameEOF is terminal: the pipeline completed normally.
	FrameEOF = "eof"
	// FrameError is terminal: the pipeline failed or the subscription
	// cannot be served (e.g. a replay gap after reconnecting too late).
	FrameError = "error"
)

// Frame is one wire message. Exactly one payload field is set, selected
// by Type.
type Frame struct {
	Type    string `json:"type"`
	Channel string `json:"channel,omitempty"`
	// Seq is the 1-based per-channel sequence number of data frames
	// (tuple/log). Hello and terminal frames carry the channel's current
	// sequence so clients can detect replay gaps.
	Seq    uint64               `json:"seq,omitempty"`
	Schema *schemafile.Document `json:"schema,omitempty"`
	Tuple  *WireTuple           `json:"tuple,omitempty"`
	Batch  *WireColumnBatch     `json:"batch,omitempty"`
	Entry  *core.Entry          `json:"entry,omitempty"`
	Error  string               `json:"error,omitempty"`
	// Gap is set on error frames rejecting a subscription whose from_seq
	// fell behind retention, so clients can map the rejection to a typed,
	// non-retryable GapError.
	Gap *GapInfo `json:"gap,omitempty"`
	// Quota is set on error frames rejecting a request that exceeded a
	// tenant quota or rate limit, so clients can map the rejection to a
	// typed QuotaError.
	Quota *QuotaInfo `json:"quota,omitempty"`

	// row and rows are the unrendered payloads the server publishes in
	// place of Tuple and Batch: EncodeFrame renders them into exactly
	// the bytes EncodeTuple and EncodeColumnBatch would have produced,
	// without building the intermediate strings. When set they take
	// precedence over Tuple and Batch. They never come off the wire.
	row  *stream.Tuple
	rows *stream.ColumnBatch
}

// GapInfo is the machine-readable payload of a replay-gap rejection.
type GapInfo struct {
	// Requested is the from_seq the client asked for.
	Requested uint64 `json:"requested"`
	// ServerMin is the oldest sequence the server still retains (0 when
	// it retains nothing).
	ServerMin uint64 `json:"server_min"`
}

// QuotaInfo is the machine-readable payload of a quota rejection.
type QuotaInfo struct {
	// Tenant is the tenant the quota applies to.
	Tenant string `json:"tenant"`
	// Resource names the exhausted resource: "sessions", "subscribers"
	// or "bytes_per_sec".
	Resource string `json:"resource"`
	// Limit is the configured ceiling; Used the consumption at rejection
	// time (for bytes_per_sec, Limit is the rate and Used the burst the
	// bucket could not cover).
	Limit uint64 `json:"limit"`
	Used  uint64 `json:"used"`
}

// WireTuple is the network rendering of a stream.Tuple. Values use the
// same textual encoding as CSV output (Value.String), so NULL and the
// empty string collapse — exactly as they do in the CLI's CSV files.
type WireTuple struct {
	ID      uint64   `json:"id"`
	Sub     int      `json:"sub,omitempty"`
	Event   string   `json:"event"`
	Arrival string   `json:"arrival"`
	Values  []string `json:"values"`
}

// wireTime is the tuple timestamp encoding: RFC3339 with nanoseconds, so
// delayed arrivals survive the round trip exactly.
const wireTime = time.RFC3339Nano

// EncodeTuple renders t for the wire.
func EncodeTuple(t stream.Tuple) *WireTuple {
	wt := &WireTuple{
		ID:      t.ID,
		Sub:     t.SubStream,
		Event:   t.EventTime.UTC().Format(wireTime),
		Arrival: t.Arrival.UTC().Format(wireTime),
		Values:  make([]string, t.Len()),
	}
	for i := 0; i < t.Len(); i++ {
		wt.Values[i] = t.At(i).String()
	}
	return wt
}

// DecodeTuple rebuilds a tuple from its wire rendering against schema.
func DecodeTuple(wt *WireTuple, schema *stream.Schema) (stream.Tuple, error) {
	if wt == nil {
		return stream.Tuple{}, fmt.Errorf("netstream: nil tuple payload")
	}
	if len(wt.Values) != schema.Len() {
		return stream.Tuple{}, fmt.Errorf("netstream: tuple %d has %d values, schema has %d", wt.ID, len(wt.Values), schema.Len())
	}
	values := make([]stream.Value, schema.Len())
	for i := range wt.Values {
		v, err := stream.ParseValue(wt.Values[i], schema.Field(i).Kind)
		if err != nil {
			return stream.Tuple{}, fmt.Errorf("netstream: tuple %d attr %q: %w", wt.ID, schema.Field(i).Name, err)
		}
		values[i] = v
	}
	t := stream.NewTuple(schema, values)
	t.ID = wt.ID
	t.SubStream = wt.Sub
	var err error
	if t.EventTime, err = time.Parse(wireTime, wt.Event); err != nil {
		return stream.Tuple{}, fmt.Errorf("netstream: tuple %d event time: %w", wt.ID, err)
	}
	if t.Arrival, err = time.Parse(wireTime, wt.Arrival); err != nil {
		return stream.Tuple{}, fmt.Errorf("netstream: tuple %d arrival: %w", wt.ID, err)
	}
	return t, nil
}

// WireColumnBatch is the network rendering of a columnar micro-batch:
// the payload of a colbatch frame. It is column-major — Columns[c][r]
// is attribute c of row r — with per-row metadata in parallel arrays,
// all using the same textual encodings as WireTuple (Value.String for
// cells, RFC3339Nano UTC for timestamps). Subs is omitted entirely when
// every row is on sub-stream 0, mirroring WireTuple's omitempty Sub.
type WireColumnBatch struct {
	Count    int        `json:"count"`
	IDs      []uint64   `json:"ids"`
	Subs     []int      `json:"subs,omitempty"`
	Events   []string   `json:"events"`
	Arrivals []string   `json:"arrivals"`
	Columns  [][]string `json:"columns"`
}

// EncodeColumnBatch renders every row of b for the wire without
// materialising per-row tuples: metadata copies straight off the
// batch's parallel arrays and cells render column-major. The metadata
// slices are copied, not aliased, so the caller may Reset and reuse b
// after the frame is published.
func EncodeColumnBatch(b *stream.ColumnBatch) *WireColumnBatch {
	n := b.Len()
	wb := &WireColumnBatch{
		Count:    n,
		IDs:      append([]uint64(nil), b.IDs()...),
		Events:   make([]string, n),
		Arrivals: make([]string, n),
		Columns:  make([][]string, b.Schema().Len()),
	}
	for _, sub := range b.SubStreams() {
		if sub != 0 {
			wb.Subs = make([]int, n)
			for r, s := range b.SubStreams() {
				wb.Subs[r] = int(s)
			}
			break
		}
	}
	events, arrivals := b.EventTimes(), b.Arrivals()
	for r := 0; r < n; r++ {
		wb.Events[r] = events[r].UTC().Format(wireTime)
		wb.Arrivals[r] = arrivals[r].UTC().Format(wireTime)
	}
	for c := range wb.Columns {
		col := make([]string, n)
		for r := 0; r < n; r++ {
			col[r] = b.Value(r, c).String()
		}
		wb.Columns[c] = col
	}
	return wb
}

// DecodeColumnBatch rebuilds the batch's rows as tuples against schema,
// in row order. Each row decodes through the same parsers as
// DecodeTuple, so a colbatch frame and the equivalent run of tuple
// frames produce byte-identical tuples.
func DecodeColumnBatch(wb *WireColumnBatch, schema *stream.Schema) ([]stream.Tuple, error) {
	if wb == nil {
		return nil, fmt.Errorf("netstream: nil column batch payload")
	}
	if wb.Count < 0 {
		return nil, fmt.Errorf("netstream: column batch has negative count %d", wb.Count)
	}
	if len(wb.IDs) != wb.Count || len(wb.Events) != wb.Count || len(wb.Arrivals) != wb.Count {
		return nil, fmt.Errorf("netstream: column batch metadata arrays disagree with count %d", wb.Count)
	}
	if wb.Subs != nil && len(wb.Subs) != wb.Count {
		return nil, fmt.Errorf("netstream: column batch has %d subs for %d rows", len(wb.Subs), wb.Count)
	}
	if len(wb.Columns) != schema.Len() {
		return nil, fmt.Errorf("netstream: column batch has %d columns, schema has %d", len(wb.Columns), schema.Len())
	}
	for c := range wb.Columns {
		if len(wb.Columns[c]) != wb.Count {
			return nil, fmt.Errorf("netstream: column batch column %q has %d rows, count is %d", schema.Field(c).Name, len(wb.Columns[c]), wb.Count)
		}
	}
	tuples := make([]stream.Tuple, 0, wb.Count)
	wt := WireTuple{Values: make([]string, schema.Len())}
	for r := 0; r < wb.Count; r++ {
		wt.ID = wb.IDs[r]
		wt.Sub = 0
		if wb.Subs != nil {
			wt.Sub = wb.Subs[r]
		}
		wt.Event = wb.Events[r]
		wt.Arrival = wb.Arrivals[r]
		for c := range wb.Columns {
			wt.Values[c] = wb.Columns[c][r]
		}
		t, err := DecodeTuple(&wt, schema)
		if err != nil {
			return nil, fmt.Errorf("netstream: column batch row %d: %w", r, err)
		}
		tuples = append(tuples, t)
	}
	return tuples, nil
}

// SchemaDocument renders schema as the wire schemafile document carried
// by hello frames.
func SchemaDocument(schema *stream.Schema) *schemafile.Document {
	doc := &schemafile.Document{Timestamp: schema.Timestamp()}
	for _, f := range schema.Fields() {
		doc.Fields = append(doc.Fields, schemafile.Field{Name: f.Name, Kind: f.Kind.String()})
	}
	return doc
}

// SchemaFromDocument rebuilds the stream schema from a hello payload.
func SchemaFromDocument(doc *schemafile.Document) (*stream.Schema, error) {
	if doc == nil {
		return nil, fmt.Errorf("netstream: hello frame carries no schema")
	}
	fields := make([]stream.Field, 0, len(doc.Fields))
	for _, fd := range doc.Fields {
		kind, err := stream.ParseKind(fd.Kind)
		if err != nil {
			return nil, fmt.Errorf("netstream: schema field %q: %w", fd.Name, err)
		}
		fields = append(fields, stream.Field{Name: fd.Name, Kind: kind})
	}
	return stream.NewSchema(doc.Timestamp, fields...)
}

// SubscribeRequest is the client's opening message on a TCP connection
// (one length-prefixed JSON frame). FromSeq selects where delivery
// starts: 0 means from the beginning of the channel, n > 0 resumes with
// the frame whose sequence number is n.
type SubscribeRequest struct {
	Channel string `json:"channel"`
	FromSeq uint64 `json:"from_seq,omitempty"`
}

// MaxFrameBytes bounds a single frame (tuples are small; this is a
// defence against corrupt or hostile length prefixes).
const MaxFrameBytes = 16 << 20

// WriteFrame writes one length-prefixed payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("netstream: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed payload.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("netstream: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// DecodeFrame unmarshals one frame payload.
func DecodeFrame(payload []byte) (*Frame, error) {
	var f Frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return nil, fmt.Errorf("netstream: decode frame: %w", err)
	}
	return &f, nil
}

// EncodeFrame renders f as one JSON object, byte-identical to what
// encoding/json's Marshal produces for the same frame (FuzzFrameEncode
// holds the two side by side). IDs, timestamps and cells are appended
// straight into a pooled scratch buffer and copied out into an
// exact-size result, so a frame costs one allocation. Like Marshal, it
// rejects a log entry whose event time has no RFC 3339 form.
func EncodeFrame(f *Frame) ([]byte, error) {
	sp := encodeScratch.Get().(*[]byte)
	b, err := appendFrame((*sp)[:0], f)
	var out []byte
	if err == nil {
		out = make([]byte, len(b))
		copy(out, b)
	}
	if cap(b) <= maxPooledScratch {
		// An oversized frame's buffer is left to the collector; the pool
		// keeps the previous one rather than pinning the large one.
		*sp = b
	}
	encodeScratch.Put(sp)
	return out, err
}

// encodeScratch holds EncodeFrame's reusable render buffers.
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledScratch caps the render buffer a pool entry keeps: a 256-row
// colbatch frame of a typical schema fits, a pathological frame is not
// retained.
const maxPooledScratch = 256 << 10

// appendFrame appends f's JSON object to b, fields in Frame's
// declaration order with encoding/json's omitempty rules.
func appendFrame(b []byte, f *Frame) ([]byte, error) {
	b = append(b, `{"type":`...)
	b = jsonenc.AppendString(b, f.Type)
	if f.Channel != "" {
		b = append(b, `,"channel":`...)
		b = jsonenc.AppendString(b, f.Channel)
	}
	if f.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, f.Seq, 10)
	}
	if f.Schema != nil {
		b = append(b, `,"schema":{"timestamp":`...)
		b = jsonenc.AppendString(b, f.Schema.Timestamp)
		b = append(b, `,"fields":`...)
		if f.Schema.Fields == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for i, fd := range f.Schema.Fields {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"name":`...)
				b = jsonenc.AppendString(b, fd.Name)
				b = append(b, `,"kind":`...)
				b = jsonenc.AppendString(b, fd.Kind)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	switch {
	case f.row != nil:
		b = appendTuple(append(b, `,"tuple":`...), f.row)
	case f.Tuple != nil:
		b = appendWireTuple(append(b, `,"tuple":`...), f.Tuple)
	}
	switch {
	case f.rows != nil:
		b = appendColumnBatch(append(b, `,"batch":`...), f.rows)
	case f.Batch != nil:
		b = appendWireColumnBatch(append(b, `,"batch":`...), f.Batch)
	}
	if f.Entry != nil {
		var err error
		if b, err = f.Entry.AppendJSON(append(b, `,"entry":`...)); err != nil {
			return b, err
		}
	}
	if f.Error != "" {
		b = append(b, `,"error":`...)
		b = jsonenc.AppendString(b, f.Error)
	}
	if f.Gap != nil {
		b = append(b, `,"gap":{"requested":`...)
		b = strconv.AppendUint(b, f.Gap.Requested, 10)
		b = append(b, `,"server_min":`...)
		b = strconv.AppendUint(b, f.Gap.ServerMin, 10)
		b = append(b, '}')
	}
	if f.Quota != nil {
		b = append(b, `,"quota":{"tenant":`...)
		b = jsonenc.AppendString(b, f.Quota.Tenant)
		b = append(b, `,"resource":`...)
		b = jsonenc.AppendString(b, f.Quota.Resource)
		b = append(b, `,"limit":`...)
		b = strconv.AppendUint(b, f.Quota.Limit, 10)
		b = append(b, `,"used":`...)
		b = strconv.AppendUint(b, f.Quota.Used, 10)
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

// appendTuple appends t as the WireTuple object EncodeTuple would
// produce.
func appendTuple(b []byte, t *stream.Tuple) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, t.ID, 10)
	if t.SubStream != 0 {
		b = append(b, `,"sub":`...)
		b = strconv.AppendInt(b, int64(t.SubStream), 10)
	}
	b = appendWireTime(append(b, `,"event":`...), t.EventTime)
	b = appendWireTime(append(b, `,"arrival":`...), t.Arrival)
	b = append(b, `,"values":[`...)
	vals := t.Values()
	for i := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCell(b, &vals[i])
	}
	return append(b, "]}"...)
}

// appendWireTuple appends an already rendered tuple.
func appendWireTuple(b []byte, wt *WireTuple) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, wt.ID, 10)
	if wt.Sub != 0 {
		b = append(b, `,"sub":`...)
		b = strconv.AppendInt(b, int64(wt.Sub), 10)
	}
	b = jsonenc.AppendString(append(b, `,"event":`...), wt.Event)
	b = jsonenc.AppendString(append(b, `,"arrival":`...), wt.Arrival)
	b = jsonenc.AppendStrings(append(b, `,"values":`...), wt.Values)
	return append(b, '}')
}

// appendColumnBatch appends cb as the WireColumnBatch object
// EncodeColumnBatch would produce, column-major like the wire form.
func appendColumnBatch(b []byte, cb *stream.ColumnBatch) []byte {
	n := cb.Len()
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, `,"ids":`...)
	if n == 0 {
		// EncodeColumnBatch copies the IDs with append onto nil, which
		// stays nil for an empty batch.
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for r, id := range cb.IDs() {
			if r > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, id, 10)
		}
		b = append(b, ']')
	}
	subs := cb.SubStreams()
	for _, sub := range subs {
		if sub != 0 {
			b = append(b, `,"subs":[`...)
			for r, s := range subs {
				if r > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(s), 10)
			}
			b = append(b, ']')
			break
		}
	}
	b = append(b, `,"events":[`...)
	for r, at := range cb.EventTimes() {
		if r > 0 {
			b = append(b, ',')
		}
		b = appendWireTime(b, at)
	}
	b = append(b, `],"arrivals":[`...)
	for r, at := range cb.Arrivals() {
		if r > 0 {
			b = append(b, ',')
		}
		b = appendWireTime(b, at)
	}
	b = append(b, `],"columns":[`...)
	for c := 0; c < cb.Schema().Len(); c++ {
		if c > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for r := 0; r < n; r++ {
			if r > 0 {
				b = append(b, ',')
			}
			v := cb.Value(r, c)
			b = appendCell(b, &v)
		}
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// appendWireColumnBatch appends an already rendered batch.
func appendWireColumnBatch(b []byte, wb *WireColumnBatch) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(wb.Count), 10)
	b = append(b, `,"ids":`...)
	if wb.IDs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, id := range wb.IDs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, id, 10)
		}
		b = append(b, ']')
	}
	if len(wb.Subs) > 0 {
		b = append(b, `,"subs":[`...)
		for i, s := range wb.Subs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, ']')
	}
	b = jsonenc.AppendStrings(append(b, `,"events":`...), wb.Events)
	b = jsonenc.AppendStrings(append(b, `,"arrivals":`...), wb.Arrivals)
	b = append(b, `,"columns":`...)
	if wb.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for c, col := range wb.Columns {
			if c > 0 {
				b = append(b, ',')
			}
			b = jsonenc.AppendStrings(b, col)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendCell appends one attribute value as the JSON string of its
// Value.String rendering. Only string values can hold bytes JSON must
// escape; every other kind renders as plain ASCII digits, signs,
// letters and punctuation.
func appendCell(b []byte, v *stream.Value) []byte {
	if s, ok := v.AsString(); ok {
		return jsonenc.AppendString(b, s)
	}
	b = append(b, '"')
	b = v.Append(b)
	return append(b, '"')
}

// appendWireTime appends a tuple timestamp in the wire time encoding,
// quoted.
func appendWireTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.UTC().AppendFormat(b, wireTime)
	return append(b, '"')
}
