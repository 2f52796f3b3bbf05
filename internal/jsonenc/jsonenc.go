// Package jsonenc holds the append-style JSON primitives of the
// hand-written encoders: strings, string arrays and timestamps rendered
// straight into a caller's buffer, byte-identical to what encoding/json
// produces for the same values. The pollution-log entry encoder in core
// and the frame encoder in netstream both build on it; their
// differential tests and fuzzers hold the output against encoding/json.
package jsonenc

import (
	"errors"
	"time"
	"unicode/utf8"
)

// AppendTime appends t exactly as time.Time.MarshalJSON renders it:
// quoted RFC 3339 with nanoseconds in t's own zone. Like MarshalJSON it
// fails when the year or the zone offset has no RFC 3339 form.
func AppendTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	switch {
	case b[n0+len("9999")] != '-':
		return b, errors.New("Time.MarshalJSON: year outside of range [0,9999]")
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		hh := 10*(b[len(b)-len("07:00")]-'0') + (b[len(b)-len("7:00")] - '0')
		if ('0' <= c && c <= '9') || hh >= 24 {
			return b, errors.New("Time.MarshalJSON: timezone hour outside of range [0,23]")
		}
	}
	return append(b, '"'), nil
}

// AppendStrings appends ss as a JSON array of strings, or null for
// a nil slice.
func AppendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendString(b, s)
	}
	return append(b, ']')
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// verbatim under its default HTML escaping.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// AppendString appends s as a quoted JSON string, escaped exactly
// as encoding/json does by default: quote and backslash, control bytes
// (\b \f \n \r \t by name, the rest as \u00XX), the HTML-significant
// < > &, invalid UTF-8 (as \ufffd) and U+2028/U+2029.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
