package csvio

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"testing"
	"time"

	"icewafl/internal/stream"
)

// oracleCSV renders the header and rows through encoding/csv, each cell
// as its Value.String — the reference the hand-written writers must
// match byte for byte. meta adds the _id and _substream columns, and
// arrival the _arrival column after them.
func oracleCSV(t *testing.T, schema *stream.Schema, tuples []stream.Tuple, meta, arrival bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	var header []string
	if meta {
		header = append(header, MetaColumns...)
		if arrival {
			header = append(header, ArrivalColumn)
		}
	}
	if err := cw.Write(append(header, schema.Names()...)); err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		var rec []string
		if meta {
			rec = append(rec, strconv.FormatUint(tu.ID, 10), strconv.Itoa(tu.SubStream))
			if arrival {
				rec = append(rec, tu.Arrival.UTC().Format(time.RFC3339Nano))
			}
		}
		for _, v := range tu.Values() {
			rec = append(rec, v.String())
		}
		if err := cw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameCSV checks the bytes a writer produced against the oracle.
func sameCSV(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: CSV differs from encoding/csv\ngot  %q\nwant %q", label, got, want)
	}
}

// FuzzCSVWrite is the differential proof that Writer and MetaWriter
// (with and without _arrival) emit exactly the bytes of encoding/csv
// writing each cell's Value.String: strings holding the separator,
// quotes, CR/LF, the end-of-data marker \., leading space runes and
// invalid UTF-8; NULL cells; NaN, ±Inf, -0 and extreme floats; times in
// any zone and year, including the zero time; large IDs and
// sub-streams; and arbitrary header names.
func FuzzCSVWrite(f *testing.F) {
	f.Add("plain", "Name", 1.5, int64(7), uint64(1), 0, 2021, int64(123456789), 0, uint8(0))
	f.Add("a,b", `say "hi"`, math.NaN(), int64(-1), uint64(math.MaxUint64), 3, 9999, int64(0), 19800, uint8(0))
	f.Add("line\nbreak", "cr\rlf\r\n", math.Inf(1), int64(math.MinInt64), uint64(0), -2, 0, int64(999999999), -28800, uint8(0))
	f.Add(`\.`, "", math.Inf(-1), int64(math.MaxInt64), uint64(42), 1<<31, -1, int64(1), 3600, uint8(0))
	f.Add(" leading space", "\ttab", math.Copysign(0, -1), int64(0), uint64(9), math.MaxInt, 10000, int64(5), 0, uint8(0))
	f.Add("\u0085next line", " nbsp", math.MaxFloat64, int64(1), uint64(9), math.MinInt, 1, int64(0), 24*3600, uint8(0))
	f.Add("\xffinvalid first byte", "\xc3", math.SmallestNonzeroFloat64, int64(1), uint64(9), 0, 1969, int64(0), -24*3600-60, uint8(0))
	f.Add("", "", 1e21, int64(1), uint64(9), 0, 2021, int64(100), 1, uint8(0xff))
	f.Add(`"`, `""`, -1e-7, int64(-42), uint64(1)<<63, 7, 1, int64(0), 0, uint8(0x55))
	f.Fuzz(func(t *testing.T, s, name string, fv float64, iv int64, id uint64, sub int, year int, nanos int64, offset int, nulls uint8) {
		year %= 20000
		offset %= 48 * 3600
		at := time.Date(year, 7, 14, 3, 4, 5, int(nanos%1e9), time.FixedZone("F", offset))
		if year == 1 && nanos == 0 && offset == 0 {
			at = time.Time{}
		}
		// The fuzzed header name replaces one attribute name, unless the
		// schema would reject it.
		if name == "" || name == "ts" || name == "s" || name == "n" || name == "ok" {
			name = "v"
		}
		schema := stream.MustSchema("ts",
			stream.Field{Name: "ts", Kind: stream.KindTime},
			stream.Field{Name: name, Kind: stream.KindFloat},
			stream.Field{Name: "s", Kind: stream.KindString},
			stream.Field{Name: "n", Kind: stream.KindInt},
			stream.Field{Name: "ok", Kind: stream.KindBool},
		)
		row := []stream.Value{stream.Time(at), stream.Float(fv), stream.Str(s), stream.Int(iv), stream.Bool(iv%2 == 0)}
		masked := append([]stream.Value(nil), row...)
		for i := range masked {
			if nulls&(1<<i) != 0 {
				masked[i] = stream.Null()
			}
		}
		var tuples []stream.Tuple
		for i, vals := range [][]stream.Value{row, masked, row} {
			tu := stream.NewTuple(schema, vals)
			tu.ID = id + uint64(i)
			tu.SubStream = sub
			tu.EventTime = at
			tu.Arrival = at.Add(time.Duration(iv % int64(time.Hour)))
			tuples = append(tuples, tu)
		}

		var buf bytes.Buffer
		if err := WriteAll(&buf, schema, tuples); err != nil {
			t.Fatal(err)
		}
		sameCSV(t, "Writer", buf.Bytes(), oracleCSV(t, schema, tuples, false, false))

		buf.Reset()
		if err := WriteAllMeta(&buf, schema, tuples); err != nil {
			t.Fatal(err)
		}
		sameCSV(t, "MetaWriter", buf.Bytes(), oracleCSV(t, schema, tuples, true, false))

		buf.Reset()
		mw := NewMetaWriter(&buf, schema)
		mw.IncludeArrival()
		for _, tu := range tuples {
			if err := mw.Write(tu); err != nil {
				t.Fatal(err)
			}
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
		sameCSV(t, "MetaWriter with _arrival", buf.Bytes(), oracleCSV(t, schema, tuples, true, true))
	})
}

// TestWriterRowAllocs is the allocation ratchet of the row encoders:
// once the first row has sized the row buffer, writing a row — quoted
// strings, floats, times and the metadata columns included — allocates
// nothing.
func TestWriterRowAllocs(t *testing.T) {
	schema := stream.MustSchema("ts",
		stream.Field{Name: "ts", Kind: stream.KindTime},
		stream.Field{Name: "v", Kind: stream.KindFloat},
		stream.Field{Name: "s", Kind: stream.KindString},
		stream.Field{Name: "n", Kind: stream.KindInt},
	)
	at := time.Date(2016, 2, 26, 13, 45, 0, 123456789, time.UTC)
	tu := stream.NewTuple(schema, []stream.Value{
		stream.Time(at), stream.Float(61.123456789), stream.Str(`a "quoted", field`), stream.Null(),
	})
	tu.ID, tu.SubStream, tu.Arrival = 1<<40, 3, at.Add(time.Hour)

	meta := NewMetaWriter(io.Discard, schema)
	meta.IncludeArrival()
	writers := []struct {
		name string
		sink stream.Sink
	}{
		{"Writer", NewWriter(io.Discard, schema)},
		{"MetaWriter", NewMetaWriter(io.Discard, schema)},
		{"MetaWriter with _arrival", meta},
	}
	for _, w := range writers {
		if err := w.sink.Write(tu); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := w.sink.Write(tu); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations per row, want 0", w.name, allocs)
		}
	}
}
