package netstream

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

// frameSchema is the schema FuzzFrameEncode renders tuples and batches
// over: one attribute of every kind.
func frameSchema() *stream.Schema {
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "sensor", Kind: stream.KindString},
		stream.Field{Name: "n", Kind: stream.KindInt},
		stream.Field{Name: "ok", Kind: stream.KindBool},
	)
}

// fuzzTime builds a timestamp from fuzz input: any year, any
// nanosecond, and a fixed zone of up to ±47h (offsets of 24h and more
// have no RFC 3339 form).
func fuzzTime(year int, nanos int64, offsetSec int) time.Time {
	year %= 20000
	offsetSec %= 48 * 3600
	return time.Date(year, 7, 14, 3, 4, 5, int(nanos%1e9), time.FixedZone("F", offsetSec))
}

// sameEncoding checks EncodeFrame against the encoding/json oracle
// rendering of the equivalent frame: identical bytes, or both failing.
func sameEncoding(t *testing.T, label string, f, oracle *Frame) {
	t.Helper()
	got, gerr := EncodeFrame(f)
	want, werr := json.Marshal(oracle)
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: EncodeFrame err %v, json.Marshal err %v", label, gerr, werr)
	}
	if gerr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: encodings differ\ngot  %s\nwant %s", label, got, want)
	}
}

// FuzzFrameEncode is the differential proof that the hand-written frame
// encoder is byte-identical to encoding/json: every frame type, built
// from arbitrary strings (escapes, control bytes, invalid UTF-8,
// U+2028/2029), floats (NaN, ±Inf, -0, extremes), sub-streams, and log
// entry times in any zone and year, where both encoders must reject
// what has no RFC 3339 form.
func FuzzFrameEncode(f *testing.F) {
	f.Add("plain", "dirty", 1.5, int64(7), 0, uint64(1), 2021, int64(123456789), 0, true)
	f.Add(`<a href="x">&amp;</a>`, `back\slash "quoted"`, math.NaN(), int64(-1), 3, uint64(math.MaxUint64), 9999, int64(0), 19800, false)
	f.Add("\x00\x01\b\f\n\r\t\x1f\x7f", "  ", math.Inf(1), int64(math.MinInt64), -2, uint64(0), 0, int64(999999999), -28800, true)
	f.Add("\xff\xfe invalid \xc3", "é ü 日本 \U0001F600", math.Inf(-1), int64(math.MaxInt64), 1, uint64(42), -1, int64(1), 3600, false)
	f.Add("", "", math.Copysign(0, -1), int64(0), 0, uint64(0), 10000, int64(5), 0, false)
	f.Add("x", "y", math.MaxFloat64, int64(1), 1<<31, uint64(9), 2021, int64(0), 24*3600, true)
	f.Add("x", "y", math.SmallestNonzeroFloat64, int64(1), 0, uint64(9), 1969, int64(0), -24*3600-60, true)
	f.Add("x", "y", 1e21, int64(1), 0, uint64(9), 2021, int64(100), 1, true)
	f.Fuzz(func(t *testing.T, s1, s2 string, fv float64, iv int64, sub int, u uint64, year int, nanos int64, offset int, bv bool) {
		schema := frameSchema()
		at := fuzzTime(year, nanos, offset)

		// Tuple frames: rendered from the tuple, against EncodeTuple.
		tu := stream.NewTuple(schema, []stream.Value{
			stream.Time(at), stream.Float(fv), stream.Str(s1), stream.Int(iv), stream.Bool(bv),
		})
		tu.ID = u
		tu.SubStream = sub
		tu.EventTime = at
		tu.Arrival = at.Add(time.Duration(iv % int64(time.Hour)))
		sameEncoding(t, "tuple", &Frame{Type: FrameTuple, Channel: s2, Seq: u, row: &tu},
			&Frame{Type: FrameTuple, Channel: s2, Seq: u, Tuple: EncodeTuple(tu)})
		nulls := stream.NewTuple(schema, make([]stream.Value, schema.Len()))
		sameEncoding(t, "null tuple", &Frame{Type: FrameTuple, row: &nulls},
			&Frame{Type: FrameTuple, Tuple: EncodeTuple(nulls)})
		wt := &WireTuple{ID: u, Sub: sub, Event: s1, Arrival: s2, Values: []string{s1, s2, ""}}
		sameEncoding(t, "wire tuple", &Frame{Type: FrameTuple, Tuple: wt}, &Frame{Type: FrameTuple, Tuple: wt})
		sameEncoding(t, "nil values", &Frame{Type: FrameTuple, Tuple: &WireTuple{}}, &Frame{Type: FrameTuple, Tuple: &WireTuple{}})

		// Colbatch frames: rows 0 and 1 on sub-stream 0, so a non-zero
		// sub-stream appears only on a later row.
		batch := stream.NewColumnBatch(schema, 3)
		empty := stream.NewColumnBatch(schema, 0)
		sameEncoding(t, "empty colbatch", &Frame{Type: FrameColBatch, rows: empty},
			&Frame{Type: FrameColBatch, Batch: EncodeColumnBatch(empty)})
		for r := 0; r < 3; r++ {
			row := stream.NewTuple(schema, []stream.Value{
				stream.Time(at), stream.Float(fv * float64(r)), stream.Str(s1 + s2), stream.Int(iv - int64(r)), stream.Bool(bv),
			})
			if r == 1 {
				row.SetAt(1, stream.Null())
				row.SetAt(2, stream.Str(s2))
			}
			row.ID = u + uint64(r)
			if r == 2 {
				row.SubStream = int(int32(sub))
			}
			row.EventTime = tu.EventTime
			row.Arrival = tu.Arrival.Add(time.Duration(r))
			if err := batch.AppendTuple(row); err != nil {
				t.Fatal(err)
			}
		}
		wb := EncodeColumnBatch(batch)
		sameEncoding(t, "colbatch", &Frame{Type: FrameColBatch, Channel: s2, Seq: u, rows: batch},
			&Frame{Type: FrameColBatch, Channel: s2, Seq: u, Batch: wb})
		sameEncoding(t, "wire colbatch", &Frame{Type: FrameColBatch, Batch: wb}, &Frame{Type: FrameColBatch, Batch: wb})
		ragged := &WireColumnBatch{Count: sub, Subs: []int{sub}, Events: []string{s1}, Columns: [][]string{nil, {s2}}}
		sameEncoding(t, "ragged colbatch", &Frame{Type: FrameColBatch, Batch: ragged}, &Frame{Type: FrameColBatch, Batch: ragged})

		// Log frames: the entry time keeps its zone, and an out-of-range
		// year or zone offset must fail in both encoders.
		for _, attrs := range [][]string{nil, {}, {s1, s2}} {
			e := &core.Entry{TupleID: u, SubStream: sub, EventTime: at, Polluter: s1, Error: s2, Attrs: attrs}
			sameEncoding(t, "log", &Frame{Type: FrameLog, Channel: s1, Seq: u, Entry: e},
				&Frame{Type: FrameLog, Channel: s1, Seq: u, Entry: e})
		}

		// Control frames.
		for _, doc := range []*schemafile.Document{
			SchemaDocument(schema),
			{Timestamp: s1, Fields: []schemafile.Field{{Name: s1, Kind: s2}, {Name: s2}}},
			{Timestamp: s2},
		} {
			sameEncoding(t, "hello", &Frame{Type: FrameHello, Channel: s2, Seq: u, Schema: doc},
				&Frame{Type: FrameHello, Channel: s2, Seq: u, Schema: doc})
		}
		for _, fr := range []*Frame{
			{Type: FrameError, Error: s1, Gap: &GapInfo{Requested: u, ServerMin: uint64(iv)}},
			{Type: FrameError, Channel: s2, Error: s1, Quota: &QuotaInfo{Tenant: s1, Resource: s2, Limit: u, Used: uint64(sub)}},
			{Type: FrameError, Error: s1},
			{Type: FrameEOF, Seq: u},
			{Type: s1},
			{},
		} {
			sameEncoding(t, "control "+fr.Type, fr, fr)
		}
	})
}
