package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// jsonLines renders entries through a json.Encoder loop — the reference
// WriteJSON must match byte for byte — stopping at the first failure.
func jsonLines(entries []Entry) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return buf.Bytes(), err
		}
	}
	return buf.Bytes(), nil
}

// TestWriteJSONMatchesEncoder holds WriteJSON against encoding/json over
// entries that exercise every escape (HTML-significant bytes, control
// bytes, U+2028/U+2029, invalid UTF-8), event times in non-UTC zones
// and with sub-second precision, and nil versus empty Attrs.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	ist := time.FixedZone("IST", 5*3600+30*60)
	pst := time.FixedZone("PST", -8*3600)
	l := &Log{Entries: []Entry{
		{TupleID: 1, EventTime: time.Date(2016, 2, 26, 0, 0, 0, 0, time.UTC), Polluter: "plain", Error: "missing_value", Attrs: []string{"BPM"}},
		{TupleID: 1 << 63, SubStream: -3, EventTime: time.Date(2016, 2, 26, 13, 45, 7, 123456789, ist),
			Polluter: `<script>alert("x")</script> & co`, Error: "a\\b\"c", Attrs: []string{"<", ">", "&"}},
		{TupleID: 2, SubStream: 1 << 40, EventTime: time.Date(1, 1, 1, 0, 0, 0, 1, pst),
			Polluter: "\x00\x01\b\f\n\r\t\x1f\x7f", Error: "line\u2028sep\u2029par", Attrs: nil},
		{TupleID: 3, EventTime: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.Local),
			Polluter: "\xff\xfe invalid \xc3", Error: "é ü 日本 \U0001F600", Attrs: []string{}},
		{},
	}}
	var got bytes.Buffer
	if err := l.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	want, err := jsonLines(l.Entries)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("WriteJSON differs from json.Encoder\ngot  %s\nwant %s", got.Bytes(), want)
	}
	back, err := ReadLogJSON(&got)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != l.Len() {
		t.Fatalf("read back %d entries, wrote %d", back.Len(), l.Len())
	}
}

// TestWriteJSONRejectsUnencodableTime checks the error path: an entry
// whose event time has no RFC 3339 form fails with its index, after the
// entries before it were written exactly as json.Encoder writes them.
func TestWriteJSONRejectsUnencodableTime(t *testing.T) {
	for _, year := range []int{-1, 10000} {
		l := &Log{Entries: []Entry{
			{TupleID: 1, EventTime: time.Date(2016, 2, 26, 0, 0, 0, 0, time.UTC), Polluter: "p", Error: "e"},
			{TupleID: 2, EventTime: time.Date(2016, 2, 26, 1, 0, 0, 0, time.UTC), Polluter: "p", Error: "e"},
			{TupleID: 3, EventTime: time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC), Polluter: "p", Error: "e"},
			{TupleID: 4, EventTime: time.Date(2016, 2, 26, 2, 0, 0, 0, time.UTC), Polluter: "p", Error: "e"},
		}}
		var got bytes.Buffer
		err := l.WriteJSON(&got)
		if err == nil {
			t.Fatalf("year %d: WriteJSON succeeded, want an error", year)
		}
		if !strings.Contains(err.Error(), "entry 2") || !strings.Contains(err.Error(), "year outside of range") {
			t.Errorf("year %d: error %q does not name entry 2 and the year range", year, err)
		}
		want, werr := jsonLines(l.Entries)
		if werr == nil {
			t.Fatalf("year %d: json.Encoder accepted the entry", year)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("year %d: bytes before the failure differ\ngot  %s\nwant %s", year, got.Bytes(), want)
		}
	}
}
