package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// segmentInfo describes one on-disk WAL segment file.
type segmentInfo struct {
	path     string
	firstLSN uint64 // from the file name
	records  int    // valid records found by scan
	validLen int64  // bytes up to and including the last valid record
	size     int64  // file size on disk
	torn     bool   // file ends in a torn/corrupt record
	tornErr  error  // what stopped the scan, when torn
}

// lastLSN returns the LSN of the segment's last valid record (firstLSN-1
// when empty).
func (s *segmentInfo) lastLSN() uint64 { return s.firstLSN + uint64(s.records) - 1 }

// segName renders a segment file name for its first LSN.
func segName(firstLSN uint64) string { return fmt.Sprintf("%020d.wal", firstLSN) }

// walDir returns the log subdirectory of a data dir.
func walDir(dir string) string { return filepath.Join(dir, "wal") }

// listSegments finds the data dir's segment files, sorted by first LSN.
// A missing wal directory is an empty log, not an error.
func listSegments(dir string) ([]segmentInfo, error) {
	ents, err := os.ReadDir(walDir(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	var segs []segmentInfo
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
		if err != nil || first == 0 {
			continue // not a segment file; leave it alone
		}
		segs = append(segs, segmentInfo{path: filepath.Join(walDir(dir), name), firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// scanSegment reads one segment file, validating framing and CRCs. When
// fn is non-nil it is called with each valid record's LSN and payload
// (the payload aliases the read buffer and is only valid for the call).
// A torn or corrupt record stops the scan and marks the segment torn;
// scanning never fails on bad record bytes, only on I/O errors.
func scanSegment(seg *segmentInfo, fn func(lsn uint64, payload []byte) error) error {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("store: read segment: %w", err)
	}
	seg.size = int64(len(data))
	seg.records = 0
	seg.torn = false
	seg.tornErr = nil
	if len(data) < len(segMagic) || [8]byte(data[:8]) != segMagic {
		seg.validLen = 0
		seg.torn = true
		seg.tornErr = fmt.Errorf("bad segment magic")
		return nil
	}
	off := int64(len(segMagic))
	seg.validLen = off
	for int64(len(data))-off >= frameOverhead {
		plen := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if plen == 0 || plen > maxRecordBytes {
			seg.torn, seg.tornErr = true, fmt.Errorf("record at offset %d: bad length %d", off, plen)
			break
		}
		if int64(len(data))-off-frameOverhead < plen {
			seg.torn, seg.tornErr = true, fmt.Errorf("record at offset %d: torn (%d of %d payload bytes)",
				off, int64(len(data))-off-frameOverhead, plen)
			break
		}
		payload := data[off+frameOverhead : off+frameOverhead+plen]
		if crc32.ChecksumIEEE(payload) != sum {
			seg.torn, seg.tornErr = true, fmt.Errorf("record at offset %d: CRC mismatch", off)
			break
		}
		if fn != nil {
			if err := fn(seg.firstLSN+uint64(seg.records), payload); err != nil {
				return err
			}
		}
		seg.records++
		off += frameOverhead + plen
		seg.validLen = off
	}
	if !seg.torn && off != int64(len(data)) {
		// Fewer than frameOverhead trailing bytes: a torn frame header.
		seg.torn = true
		seg.tornErr = fmt.Errorf("record at offset %d: torn frame header (%d bytes)", off, int64(len(data))-off)
	}
	return nil
}

// undecodable is where a scan stopped delivering records: the LSN of a
// record that passed its CRC but failed to decode, and the decode error.
type undecodable struct {
	lsn uint64
	err error
}

// scanLog scans every segment in order. Replay stops at the first torn or
// corrupt segment (later segments are reported but their records are not
// delivered — after damage the LSN sequence cannot be trusted), matching
// the recovery contract: salvage the valid prefix, never panic. Records
// from overlapping segments (lsn ≤ an already-delivered lsn) are skipped.
// A record that passes its CRC but fails to decode stops delivery the
// same way; stop reports it (nil when fn is nil or every record decoded).
func scanLog(dir string, fn func(rec *Record) error) (segs []segmentInfo, lastLSN uint64, stop *undecodable, err error) {
	segs, err = listSegments(dir)
	if err != nil {
		return nil, 0, nil, err
	}
	stopped := false
	var rec Record
	for i := range segs {
		seg := &segs[i]
		scanErr := scanSegment(seg, func(lsn uint64, payload []byte) error {
			if lsn <= lastLSN && lastLSN != 0 {
				return nil // duplicate/overlapping segment content
			}
			lastLSN = lsn
			if stopped || fn == nil {
				return nil
			}
			rec = Record{LSN: lsn}
			if derr := decodeRecord(payload, &rec); derr != nil {
				// A framed record that fails semantic decode is treated
				// like corruption: stop delivering, keep counting.
				stopped = true
				stop = &undecodable{lsn: lsn, err: derr}
				return nil
			}
			return fn(&rec)
		})
		if scanErr != nil {
			return segs, lastLSN, stop, scanErr
		}
		if seg.lastLSN() > lastLSN {
			lastLSN = seg.lastLSN()
		}
		if seg.torn {
			stopped = true
		}
	}
	return segs, lastLSN, stop, nil
}

// fsyncDir fsyncs a directory so entry creation/removal is durable.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
