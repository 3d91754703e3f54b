package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// ingestBatch is one decoded ingest request: the raw body bytes plus the
// parsed per-row columns. Batches are pooled — the handler checks one out,
// reads and parses the body into it, and the ingest worker returns it
// after applying the rows — so a steady stream of ingest requests reuses
// the same few buffers instead of allocating per request. The item strings
// themselves are fresh allocations by necessity: sketches retain them.
type ingestBatch struct {
	buf   []byte    // raw request body
	items []string  // one item label per row
	ws    []float64 // weights (weighted kind; 1 when absent)
	ats   []int64   // timestamps (rollup kind)
}

var ingestPool = sync.Pool{New: func() any { return new(ingestBatch) }}

// Pool retention high-water marks: a batch whose buffers grew past these
// caps is dropped on put instead of pooled, so one giant request — a
// 32 MiB snapshot push, a bulk backfill — cannot pin its buffers in the
// pool for the rest of the process's life. Steady ingest traffic sits
// far below both marks and keeps its zero-allocation reuse.
const (
	maxPooledBufBytes = 1 << 20 // raw body buffer cap, bytes
	maxPooledRows     = 1 << 16 // parsed column caps, rows
)

// getBatch checks a reset batch out of the pool.
func getBatch() *ingestBatch {
	b := ingestPool.Get().(*ingestBatch)
	b.buf = b.buf[:0]
	b.items = b.items[:0]
	b.ws = b.ws[:0]
	b.ats = b.ats[:0]
	return b
}

// poolable reports whether the batch's buffers are under the retention
// high-water marks.
func (b *ingestBatch) poolable() bool {
	return cap(b.buf) <= maxPooledBufBytes && cap(b.items) <= maxPooledRows &&
		cap(b.ws) <= maxPooledRows && cap(b.ats) <= maxPooledRows
}

// putBatch returns a batch to the pool, unless its buffers outgrew the
// high-water marks — those are dropped for the GC. The item strings
// handed to the sketch stay alive either way; only the slice headers are
// reused.
func putBatch(b *ingestBatch) {
	if !b.poolable() {
		return
	}
	ingestPool.Put(b)
}

// ReadBody appends r's body to buf and reports whether it read it all;
// when not, it has answered the request: 413 for a body over limit
// bytes, 400 for any other read failure. A declared Content-Length under
// the limit grows buf once, so such a body reads with no further growth.
// The node's ingest, push, create and query handlers and the cluster
// proxy's read every capped body here, so an oversize one fails alike on
// both.
func ReadBody(w http.ResponseWriter, r *http.Request, buf []byte, limit int64) ([]byte, bool) {
	if n := r.ContentLength; n > 0 && n <= limit {
		buf = slices.Grow(buf, int(n)+1) // +1: the final EOF read needs room too
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		var tooBig *http.MaxBytesError
		switch {
		case err == io.EOF:
			return buf, true
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", limit))
			return buf, false
		case err != nil:
			writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
			return buf, false
		}
	}
}

// parseText parses the newline-separated text ingest format (see
// textScanner) into the batch's columns, one item string per row.
func (b *ingestBatch) parseText(kind Kind) error {
	s := textScanner{rest: b.buf}
	if wholeRow(kind) {
		for s.next() {
			b.items = append(b.items, string(s.row()))
		}
		return nil
	}
	for s.next() {
		item, w, at, err := parseTabRow(kind, s.row(), s.line)
		if err != nil {
			return err
		}
		b.items = append(b.items, string(item))
		if kind == KindWeighted {
			b.ws = append(b.ws, w)
		} else {
			b.ats = append(b.ats, at)
		}
	}
	return nil
}

// textScanner cuts a newline-separated text ingest body into rows. Each
// line is one row:
//
//	unit, sharded:  item
//	weighted:       item [TAB weight]     (weight defaults to 1)
//	rollup:         item TAB timestamp    (integer, the row's window time)
//
// Empty lines are skipped; one trailing CR (CRLF input) is trimmed.
// Lines are numbered from 1, blank ones included, for parseTabRow's
// errors. For the tab-separated kinds the item must not itself contain
// a tab. The node's parser (parseText) and the cluster split
// (SplitIngestText) both read bodies through it and parseTabRow, so they
// accept, reject and number rows alike.
type textScanner struct {
	rest []byte // the body not yet cut
	line int    // the current row's line number
	raw  []byte // the current row as received, up to its '\n': a trailing CR stays
	n    int    // len(raw) less that CR
}

// next advances to the next non-blank row; it reports false at the end
// of the body. Every row a node ingests passes here, so next stays
// within the compiler's inlining budget: inlined, its byte loop runs on
// the caller's locals, with no call and no write barrier per row.
func (s *textScanner) next() bool {
	for len(s.rest) > 0 {
		s.line++
		rest := s.rest
		n := 0
		for n < len(rest) && rest[n] != '\n' {
			n++
		}
		s.raw, s.rest = rest[:n], rest[min(n+1, len(rest)):]
		if n > 0 && rest[n-1] == '\r' {
			n--
		}
		if s.n = n; n > 0 {
			return true
		}
	}
	return false
}

// row returns the current row less its trailing CR.
func (s *textScanner) row() []byte { return s.raw[:s.n] }

// wholeRow reports whether a text row of kind is all item: unit and
// sharded rows carry no tab-separated column to validate.
func wholeRow(kind Kind) bool { return kind == KindUnit || kind == KindSharded }

// parseTabRow validates row, the text of line line less its trailing
// CR, for a tab-separated kind. It returns the row's item, a view of
// row, and its weight (weighted) or timestamp (rollup).
func parseTabRow(kind Kind, row []byte, line int) ([]byte, float64, int64, error) {
	switch kind {
	case KindWeighted:
		item, rest, hasTab := cutTab(row)
		w := 1.0
		if hasTab {
			var err error
			w, err = strconv.ParseFloat(string(rest), 64)
			// ParseFloat accepts NaN and Inf; neither is a weight.
			if err != nil || !(w > 0) || math.IsInf(w, 0) {
				return nil, 0, 0, fmt.Errorf("line %d: bad weight %q", line, rest)
			}
		}
		if len(item) == 0 {
			return nil, 0, 0, fmt.Errorf("line %d: empty item", line)
		}
		return item, w, 0, nil
	case KindRollup:
		item, rest, hasTab := cutTab(row)
		if !hasTab || len(item) == 0 {
			return nil, 0, 0, fmt.Errorf("line %d: rollup rows need item TAB timestamp", line)
		}
		at, err := strconv.ParseInt(string(rest), 10, 64)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("line %d: bad timestamp %q", line, rest)
		}
		return item, 1, at, nil
	}
	return nil, 0, 0, fmt.Errorf("unknown kind %q", kind)
}

// cutTab splits row at its first tab.
func cutTab(row []byte) (before, after []byte, found bool) {
	for i, c := range row {
		if c == '\t' {
			return row[:i], row[i+1:], true
		}
	}
	return row, nil, false
}
