package server

import (
	"fmt"
	"io"
	"math"
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

// readBody reads r into the batch's pooled buffer, rejecting bodies over
// limit bytes.
func (b *ingestBatch) readBody(r io.Reader, limit int64) error {
	for {
		if len(b.buf) == cap(b.buf) {
			b.buf = append(b.buf, 0)[:len(b.buf)]
		}
		n, err := r.Read(b.buf[len(b.buf):cap(b.buf)])
		b.buf = b.buf[:len(b.buf)+n]
		if int64(len(b.buf)) > limit {
			return fmt.Errorf("request body exceeds %d bytes", limit)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// parseText parses the newline-separated text ingest format into the
// batch's columns. Each line is one row:
//
//	unit, sharded:  item
//	weighted:       item [TAB weight]     (weight defaults to 1)
//	rollup:         item TAB timestamp    (integer, the row's window time)
//
// Empty lines are skipped; a trailing CR (CRLF input) is trimmed. For the
// tab-separated kinds the item must not itself contain a tab.
func (b *ingestBatch) parseText(kind Kind) error {
	buf := b.buf
	line := 0
	for len(buf) > 0 {
		line++
		nl := -1
		for i, c := range buf {
			if c == '\n' {
				nl = i
				break
			}
		}
		var row []byte
		if nl >= 0 {
			row, buf = buf[:nl], buf[nl+1:]
		} else {
			row, buf = buf, nil
		}
		if len(row) > 0 && row[len(row)-1] == '\r' {
			row = row[:len(row)-1]
		}
		if len(row) == 0 {
			continue
		}
		switch kind {
		case KindUnit, KindSharded:
			b.items = append(b.items, string(row))
		case KindWeighted:
			item, rest, hasTab := cutTab(row)
			w := 1.0
			if hasTab {
				var err error
				w, err = strconv.ParseFloat(string(rest), 64)
				// ParseFloat accepts NaN and Inf; neither is a weight.
				if err != nil || !(w > 0) || math.IsInf(w, 0) {
					return fmt.Errorf("line %d: bad weight %q", line, rest)
				}
			}
			if len(item) == 0 {
				return fmt.Errorf("line %d: empty item", line)
			}
			b.items = append(b.items, string(item))
			b.ws = append(b.ws, w)
		case KindRollup:
			item, rest, hasTab := cutTab(row)
			if !hasTab || len(item) == 0 {
				return fmt.Errorf("line %d: rollup rows need item TAB timestamp", line)
			}
			at, err := strconv.ParseInt(string(rest), 10, 64)
			if err != nil {
				return fmt.Errorf("line %d: bad timestamp %q", line, rest)
			}
			b.items = append(b.items, string(item))
			b.ats = append(b.ats, at)
		}
	}
	return nil
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
