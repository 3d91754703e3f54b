package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	uss "repro"
)

// answerPool holds /query answer buffers. putAnswer follows putBatch's
// retention cap, so one huge answer cannot pin its buffer for the life of
// the process.
var answerPool = sync.Pool{New: func() any { return new([]byte) }}

func putAnswer(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBufBytes {
		*bp = b
		answerPool.Put(bp)
	}
}

// writeBody answers with an encoded JSON body in one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// appendQueryAnswer renders a /query answer straight from the engine's
// groups. The bytes are exactly what encoding/json's Encoder writes for
// the map the handler used to build — keys degraded, groups, peers,
// skipped in sorted order; per group key (omitted when empty),
// key_string, value, std_err, sample_bins; a trailing newline — which
// TestQueryRendererMatchesEncodingJSON checks. peers is rh.Peers already
// marshaled, or nil. A non-finite value fails the answer with
// encoding/json's error.
func appendQueryAnswer(b []byte, groups []uss.QueryGroup, skipped int, rh *ReadHealth, peers []byte) ([]byte, error) {
	b = append(b, '{')
	if rh != nil {
		b = append(b, `"degraded":`...)
		b = strconv.AppendBool(b, rh.Degraded)
		b = append(b, ',')
	}
	b = append(b, `"groups":[`...)
	for i := range groups {
		g := &groups[i]
		for _, f := range [...]float64{g.Sum.Value, g.Sum.StdErr} {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
			}
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		if pairs := g.KeyPairs(); len(pairs) > 0 {
			b = append(b, `"key":{`...)
			for j, kp := range pairs {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendJSONString(b, kp.Dim)
				b = append(b, ':')
				b = appendJSONString(b, kp.Value)
			}
			b = append(b, "},"...)
		}
		b = append(b, `"key_string":`...)
		b = appendJSONString(b, g.KeyString())
		b = append(b, `,"value":`...)
		b = appendJSONFloat(b, g.Sum.Value)
		b = append(b, `,"std_err":`...)
		b = appendJSONFloat(b, g.Sum.StdErr)
		b = append(b, `,"sample_bins":`...)
		b = strconv.AppendInt(b, int64(g.Sum.SampleBins), 10)
		b = append(b, '}')
	}
	b = append(b, ']')
	if peers != nil {
		b = append(b, `,"peers":`...)
		b = append(b, peers...)
	}
	b = append(b, `,"skipped":`...)
	b = strconv.AppendInt(b, int64(skipped), 10)
	return append(b, "}\n"...), nil
}

// appendJSONFloat appends f the way encoding/json encodes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and from
// 1e21 on, with a one-digit negative exponent left unpadded (1e-7, not
// 1e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// An exponent always has two digits here, so the last four bytes
		// are the float's own.
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped with HTML escaping on: everything printable except the quote,
// the backslash, and <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted the way encoding/json quotes a string
// with HTML escaping on: short escapes for the quote, backslash, \b, \f,
// \n, \r and \t; \u00XX for other control bytes and for <, > and &;
// \ufffd for each byte of invalid UTF-8; and U+2028, U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
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
			case '"', '\\':
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
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
