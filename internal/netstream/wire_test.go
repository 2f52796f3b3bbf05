package netstream

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"icewafl/internal/core"
	"icewafl/internal/stream"
)

func wireSchema(t *testing.T) *stream.Schema {
	t.Helper()
	return stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "sensor", Kind: stream.KindString},
	)
}

// TestTupleRoundTrip checks that a tuple survives the wire encoding
// exactly: IDs, substream, timestamps with nanoseconds, and every
// attribute value (including NULL).
func TestTupleRoundTrip(t *testing.T) {
	schema := wireSchema(t)
	in := stream.NewTuple(schema, []stream.Value{
		stream.Time(time.Date(2021, 6, 1, 12, 0, 0, 987654321, time.UTC)),
		stream.Float(3.14159),
		stream.Null(),
	})
	in.ID = 42
	in.SubStream = 3
	in.EventTime = time.Date(2021, 6, 1, 12, 0, 0, 987654321, time.UTC)
	in.Arrival = in.EventTime.Add(17 * time.Millisecond)

	out, err := DecodeTuple(EncodeTuple(in), schema)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.SubStream != in.SubStream {
		t.Errorf("identity changed: got (%d,%d), want (%d,%d)", out.ID, out.SubStream, in.ID, in.SubStream)
	}
	if !out.EventTime.Equal(in.EventTime) || !out.Arrival.Equal(in.Arrival) {
		t.Errorf("timestamps changed: got (%v,%v), want (%v,%v)", out.EventTime, out.Arrival, in.EventTime, in.Arrival)
	}
	for i := 0; i < schema.Len(); i++ {
		if got, want := out.At(i).String(), in.At(i).String(); got != want {
			t.Errorf("attr %d: got %q, want %q", i, got, want)
		}
	}
}

// TestDecodeTupleMismatch rejects tuples whose arity disagrees with the
// schema.
func TestDecodeTupleMismatch(t *testing.T) {
	schema := wireSchema(t)
	wt := &WireTuple{ID: 1, Event: "2021-06-01T00:00:00Z", Arrival: "2021-06-01T00:00:00Z", Values: []string{"x"}}
	if _, err := DecodeTuple(wt, schema); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := DecodeTuple(nil, schema); err == nil {
		t.Fatal("expected nil payload error")
	}
}

// TestSchemaDocumentRoundTrip checks the hello-frame schema encoding.
func TestSchemaDocumentRoundTrip(t *testing.T) {
	schema := wireSchema(t)
	out, err := SchemaFromDocument(SchemaDocument(schema))
	if err != nil {
		t.Fatal(err)
	}
	if !sameSchema(schema, out) {
		t.Errorf("schema changed over the wire: %v vs %v", schema, out)
	}
	if _, err := SchemaFromDocument(nil); err == nil {
		t.Fatal("expected error for missing schema")
	}
}

// encodeFixture returns a tuple, a 256-row batch of such tuples and a
// log entry, the payloads of the three data frame types.
func encodeFixture(tb testing.TB) (stream.Tuple, *stream.ColumnBatch, *core.Entry) {
	tb.Helper()
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "sensor", Kind: stream.KindString},
	)
	base := time.Date(2021, 6, 1, 12, 0, 0, 987654321, time.UTC)
	row := func(i int) stream.Tuple {
		tu := stream.NewTuple(schema, []stream.Value{
			stream.Time(base.Add(time.Duration(i) * time.Second)),
			stream.Float(float64(i) * 1.37),
			stream.Str("sensor-<7>"),
		})
		tu.ID = uint64(i + 1)
		tu.SubStream = i % 3
		tu.EventTime = base.Add(time.Duration(i) * time.Second)
		tu.Arrival = tu.EventTime.Add(time.Millisecond)
		return tu
	}
	batch := stream.NewColumnBatch(schema, 256)
	for i := 0; i < 256; i++ {
		if err := batch.AppendTuple(row(i)); err != nil {
			tb.Fatal(err)
		}
	}
	entry := &core.Entry{TupleID: 9, SubStream: 1, EventTime: base.In(time.FixedZone("CEST", 7200)),
		Polluter: "gaussian-noise", Error: "noise", Attrs: []string{"v", "sensor"}}
	return row(1), batch, entry
}

// TestEncodeFrameAllocs is the allocation ratchet of the frame encoder:
// a tuple frame rendered from its stream.Tuple, a 256-row colbatch
// frame and a log frame each cost one allocation — the returned slice.
func TestEncodeFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tu, batch, entry := encodeFixture(t)
	for _, tc := range []struct {
		name string
		f    *Frame
	}{
		{"tuple", &Frame{Type: FrameTuple, Channel: ChannelDirty, Seq: 5, row: &tu}},
		{"colbatch", &Frame{Type: FrameColBatch, Channel: ChannelDirty, Seq: 6, rows: batch}},
		{"log", &Frame{Type: FrameLog, Channel: ChannelLog, Seq: 7, Entry: entry}},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			_, err = EncodeFrame(tc.f)
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs > 1 {
			t.Errorf("%s frame: %.1f allocs per encode, want <= 1", tc.name, allocs)
		}
	}
}

// TestFrameIO round-trips length-prefixed frames and enforces the size
// limit in both directions.
func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte(`{"type":"hello"}`), {}, []byte(strings.Repeat("x", 1000))}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame changed: got %q, want %q", got, want)
		}
	}

	if err := WriteFrame(&buf, make([]byte, MaxFrameBytes+1)); err == nil {
		t.Fatal("expected oversized write to fail")
	}
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&hdr); err == nil {
		t.Fatal("expected hostile length prefix to fail")
	}
}

// TestParsePolicy covers the configuration spellings and their String
// round-trip.
func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"", PolicyBlock},
		{"block", PolicyBlock},
		{"drop-oldest", PolicyDropOldest},
		{"disconnect-slow", PolicyDisconnectSlow},
	} {
		got, err := ParsePolicy(tc.in)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// encodeSink keeps BenchmarkEncodeFrame's result alive.
var encodeSink []byte

// BenchmarkEncodeFrame times EncodeFrame per data frame type; the
// colbatch frame carries 256 rows.
func BenchmarkEncodeFrame(b *testing.B) {
	tu, batch, entry := encodeFixture(b)
	for _, bc := range []struct {
		name string
		f    *Frame
	}{
		{"tuple", &Frame{Type: FrameTuple, Channel: ChannelDirty, Seq: 5, row: &tu}},
		{"colbatch", &Frame{Type: FrameColBatch, Channel: ChannelDirty, Seq: 6, rows: batch}},
		{"log", &Frame{Type: FrameLog, Channel: ChannelLog, Seq: 7, Entry: entry}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if encodeSink, err = EncodeFrame(bc.f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
