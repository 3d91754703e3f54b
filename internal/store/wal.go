// Package store is ussd's durability subsystem: a segmented append-only
// write-ahead log plus periodic per-sketch checkpoints, so the sketch
// state agents pushed and the rows the server acknowledged survive a
// crash. The WAL records the server's mutating operations — sketch
// creation and deletion (manifest records), ingest batches, and pushed
// wire-v2 snapshots — as CRC32-framed, length-prefixed records; a
// checkpoint persists every live sketch's full state (wire-v2 frames)
// together with the log sequence number it covers, after which the
// segments it supersedes are deleted.
//
// # Log layout
//
// A data directory holds the log and the checkpoints:
//
//	<dir>/wal/00000000000000000001.wal    segment: 8-byte magic, then records
//	<dir>/wal/00000000000000002381.wal    next segment (name = first LSN)
//	<dir>/cp-00000000000000000004/        one checkpoint generation
//	    0000.state                        per-sketch state blob (wire v2)
//	    manifest.json                     written last; presence = validity
//
// Every record is framed as
//
//	uint32 LE payload length | uint32 LE CRC32 (IEEE, over the payload) |
//	payload (type byte + body)
//
// and is assigned a log sequence number (LSN) implicitly: a segment file
// is named after its first record's LSN, and records number sequentially
// within it. Segments rotate at Options.SegmentBytes.
//
// # Recovery
//
// Recovery loads the newest checkpoint generation with a valid manifest,
// restores each sketch from its state blob, then replays the log tail:
// every record whose LSN is higher than its sketch's checkpoint LSN is
// re-applied through RebuiltSketch's methods (ApplyIngest for ingest
// batches, MergePush for pushed snapshots), which are also how the live
// server and a replication follower change a sketch. A torn record at
// the log's tail — the expected crash artifact — truncates the log
// there; corruption in the middle of the log stops replay at the damage
// and salvages the prefix, never panicking (FuzzWALRecord pins this).
//
// # Durability contract
//
// With Options.Sync == SyncAlways a caller acknowledges a record only
// after WaitDurable returns for its LSN, so a record the caller
// acknowledged is on stable storage; one fsync covers every record
// appended before it started (group commit, groupcommit.go). SyncNever
// leaves flushing to the OS. Checkpoint commits always fsync their files
// and directories and install the manifest atomically, so a crash
// mid-checkpoint leaves the previous generation (and the un-truncated
// log) authoritative.
package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
)

// Record types. The type byte leads every record payload. Exported so
// transports (the replication follower) can dispatch decoded records
// without round-tripping through display names.
const (
	TypeCreate   = byte(1) // sketch created: body = SketchSpec JSON
	TypeDelete   = byte(2) // sketch deleted: body = name bytes
	TypeIngest   = byte(3) // ingest batch: body = name + row columns
	TypeSnapshot = byte(4) // pushed snapshot: body = name + reduction + wire-v2 blob
)

// frameOverhead is the per-record framing cost: length + CRC.
const frameOverhead = 8

// maxRecordBytes rejects absurd lengths while scanning (a corrupt length
// prefix must not drive a giant allocation).
const maxRecordBytes = 256 << 20

// segMagic opens every segment file.
var segMagic = [8]byte{'U', 'S', 'S', 'W', 'A', 'L', 'v', '1'}

// ingest-record column flags.
const (
	colWeights = 1 << 0
	colAts     = 1 << 1
)

// SketchSpec is the sketch configuration carried by create records and
// checkpoint manifests. Its JSON shape is the server's create-request
// body, so the log stays readable with standard tools.
type SketchSpec struct {
	// Name is the sketch's registry key.
	Name string `json:"name"`
	// Kind is the sketch flavour: unit, weighted, sharded or rollup.
	Kind string `json:"kind"`
	// Bins is the bin budget (per shard for sharded, per window for
	// rollup).
	Bins int `json:"bins"`
	// Shards is the shard count (sharded kind only).
	Shards int `json:"shards,omitempty"`
	// Seed fixes the sketch randomness; a non-zero seed makes recovery
	// replay bit-identical to the live ingest it re-runs.
	Seed int64 `json:"seed,omitempty"`
	// WindowLength is the rollup window duration.
	WindowLength int64 `json:"window_length,omitempty"`
	// Retain bounds retained rollup windows (0 = keep all).
	Retain int `json:"retain,omitempty"`
}

// Record is one decoded WAL record, as delivered by replay and the
// inspect path. Exactly the fields matching Type are populated.
type Record struct {
	// LSN is the record's log sequence number.
	LSN uint64
	// Type is one of the Type* record types.
	Type byte
	// Spec is the created sketch's configuration (create records).
	Spec SketchSpec
	// SpecJSON is the raw configuration body (create records).
	SpecJSON []byte
	// Name is the target sketch (delete, ingest and snapshot records).
	Name string
	// Items, Weights, Ats are the ingest batch's row columns. Weights
	// and Ats are nil when the batch carried none.
	Items   []string
	Weights []float64
	Ats     []int64
	// Reduction is the merge reduction a pushed snapshot was applied
	// with (snapshot records).
	Reduction byte
	// Blob is the pushed wire-v2 snapshot (snapshot records). It aliases
	// the scan buffer and must be copied if retained.
	Blob []byte
}

// appendIngestPayload encodes an ingest record's payload: type byte,
// name, column flags, row count, then the item, weight and timestamp
// columns. It only appends, so a caller-reused buffer makes steady-state
// encoding allocation-free.
func appendIngestPayload(dst []byte, name string, items []string, ws []float64, ats []int64) []byte {
	dst = append(dst, TypeIngest)
	dst = binary.AppendUvarint(dst, uint64(len(name)))
	dst = append(dst, name...)
	var flags byte
	if len(ws) > 0 {
		flags |= colWeights
	}
	if len(ats) > 0 {
		flags |= colAts
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, it := range items {
		dst = binary.AppendUvarint(dst, uint64(len(it)))
		dst = append(dst, it...)
	}
	if flags&colWeights != 0 {
		for i := range items {
			w := 1.0
			if i < len(ws) {
				w = ws[i]
			}
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
		}
	}
	if flags&colAts != 0 {
		for i := range items {
			var at int64
			if i < len(ats) {
				at = ats[i]
			}
			dst = binary.AppendVarint(dst, at)
		}
	}
	return dst
}

// decodeRecord parses one record payload into r (which keeps its LSN).
// Item strings are copied out of payload; Blob aliases it.
func decodeRecord(payload []byte, r *Record) error {
	if len(payload) == 0 {
		return fmt.Errorf("store: empty record payload")
	}
	r.Type = payload[0]
	body := payload[1:]
	switch r.Type {
	case TypeCreate:
		if err := json.Unmarshal(body, &r.Spec); err != nil {
			return fmt.Errorf("store: create record: %w", err)
		}
		if r.Spec.Name == "" {
			return fmt.Errorf("store: create record without a name")
		}
		r.SpecJSON = body
		r.Name = r.Spec.Name
	case TypeDelete:
		if len(body) == 0 {
			return fmt.Errorf("store: delete record without a name")
		}
		r.Name = string(body)
	case TypeIngest:
		return decodeIngestBody(body, r)
	case TypeSnapshot:
		name, rest, err := cutString(body)
		if err != nil {
			return fmt.Errorf("store: snapshot record: %w", err)
		}
		if len(rest) < 1 {
			return fmt.Errorf("store: snapshot record %q has no payload", name)
		}
		r.Name = name
		r.Reduction = rest[0]
		r.Blob = rest[1:]
	default:
		return fmt.Errorf("store: unknown record type %d", r.Type)
	}
	return nil
}

// decodeIngestBody parses an ingest record's columns.
func decodeIngestBody(body []byte, r *Record) error {
	name, rest, err := cutString(body)
	if err != nil {
		return fmt.Errorf("store: ingest record: %w", err)
	}
	if len(rest) < 1 {
		return fmt.Errorf("store: ingest record %q truncated before flags", name)
	}
	flags := rest[0]
	rest = rest[1:]
	if flags&^byte(colWeights|colAts) != 0 {
		return fmt.Errorf("store: ingest record %q has unknown column flags %#x", name, flags)
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 {
		return fmt.Errorf("store: ingest record %q has a bad row count", name)
	}
	rest = rest[w:]
	if n > uint64(len(rest)) {
		// Every row costs at least one length byte, so this bounds the
		// allocation below before trusting the count.
		return fmt.Errorf("store: ingest record %q claims %d rows in %d bytes", name, n, len(rest))
	}
	r.Name = name
	r.Items = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		it, r2, err := cutString(rest)
		if err != nil {
			return fmt.Errorf("store: ingest record %q item %d: %w", name, i, err)
		}
		rest = r2
		r.Items = append(r.Items, it)
	}
	if flags&colWeights != 0 {
		if uint64(len(rest)) < 8*n {
			return fmt.Errorf("store: ingest record %q truncated in weights", name)
		}
		r.Weights = make([]float64, n)
		for i := range r.Weights {
			r.Weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
			if !replayableWeight(r.Weights[i]) {
				return fmt.Errorf("store: ingest record %q has invalid weight %v", name, r.Weights[i])
			}
		}
		rest = rest[8*n:]
	}
	if flags&colAts != 0 {
		r.Ats = make([]int64, n)
		for i := range r.Ats {
			at, w := binary.Varint(rest)
			if w <= 0 {
				return fmt.Errorf("store: ingest record %q truncated in timestamps", name)
			}
			r.Ats[i] = at
			rest = rest[w:]
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("store: ingest record %q has %d trailing bytes", name, len(rest))
	}
	return nil
}

// DecodePayload parses one record payload (type byte + body, without
// the length/CRC frame header) into a Record carrying lsn — the decode
// entry point for records arriving over a transport instead of off the
// local log. Item strings are copied out of payload; Blob aliases it
// and must be copied if retained past the payload's lifetime.
func DecodePayload(lsn uint64, payload []byte) (Record, error) {
	r := Record{LSN: lsn}
	err := decodeRecord(payload, &r)
	return r, err
}

// AppendFramed appends payload to dst framed exactly as the on-disk log
// frames records (uint32 LE length, uint32 LE CRC32, payload), so a
// replication stream carries byte-identical frames and the follower's
// re-append reproduces the primary's log bit for bit.
func AppendFramed(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// CutFrame parses one framed record off the front of b, returning its
// payload (aliasing b) and the remainder. err is non-nil on a torn or
// corrupt frame; a clean empty b returns (nil, nil, nil).
func CutFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, nil
	}
	if len(b) < frameOverhead {
		return nil, nil, fmt.Errorf("store: torn frame header (%d bytes)", len(b))
	}
	plen := int64(binary.LittleEndian.Uint32(b))
	sum := binary.LittleEndian.Uint32(b[4:])
	if plen == 0 || plen > maxRecordBytes {
		return nil, nil, fmt.Errorf("store: bad frame length %d", plen)
	}
	if int64(len(b))-frameOverhead < plen {
		return nil, nil, fmt.Errorf("store: torn frame (%d of %d payload bytes)", int64(len(b))-frameOverhead, plen)
	}
	payload = b[frameOverhead : frameOverhead+plen]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, fmt.Errorf("store: frame CRC mismatch")
	}
	return payload, b[frameOverhead+plen:], nil
}

// cutString reads a uvarint-length-prefixed string off the front of b.
func cutString(b []byte) (string, []byte, error) {
	l, w := binary.Uvarint(b)
	if w <= 0 || l > uint64(len(b)-w) {
		return "", nil, fmt.Errorf("truncated length-prefixed string")
	}
	return string(b[w : w+int(l)]), b[w+int(l):], nil
}

// recordTypeName renders a record type for inspect output.
func recordTypeName(t byte) string {
	switch t {
	case TypeCreate:
		return "create"
	case TypeDelete:
		return "delete"
	case TypeIngest:
		return "ingest"
	case TypeSnapshot:
		return "snapshot"
	default:
		return fmt.Sprintf("type-%d", t)
	}
}
