package store

// SegmentReport describes one log segment for offline inspection.
type SegmentReport struct {
	// Path is the segment file.
	Path string
	// FirstLSN and LastLSN bound the valid records found.
	FirstLSN, LastLSN uint64
	// Records counts valid records; Size is the on-disk byte size.
	Records int
	Size    int64
	// Torn marks a segment whose scan stopped early; TornErr says why.
	Torn    bool
	TornErr string
}

// CheckpointSketch describes one sketch in the loaded checkpoint.
type CheckpointSketch struct {
	// Name and Kind identify the sketch.
	Name, Kind string
	// LSN is the record the checkpoint state covers through; Rows the
	// served-row counter at checkpoint time; Bytes the state blob size.
	LSN   uint64
	Rows  int64
	Bytes int64
}

// Report is Inspect's summary of a data directory.
type Report struct {
	// CheckpointGen is the newest committed checkpoint (0 = none) and
	// Cutoff its truncation LSN.
	CheckpointGen uint64
	Cutoff        uint64
	// Checkpoint lists the checkpointed sketches.
	Checkpoint []CheckpointSketch
	// Segments lists the log segments in LSN order.
	Segments []SegmentReport
	// LastLSN is the highest LSN found.
	LastLSN uint64
}

// Inspect summarizes a data directory read-only: the committed
// checkpoint, every segment's health, and — when each is non-nil — a
// callback per decoded record for detailed listings. Damaged records
// stop the record stream for that and later segments (mirroring
// recovery) but the per-segment reports still describe the damage.
func Inspect(dir string, each func(rec *Record)) (*Report, error) {
	rep := &Report{}
	if gen := latestCheckpointGen(dir); gen != 0 {
		man, err := loadManifest(dir, gen)
		if err != nil {
			return nil, err
		}
		rep.CheckpointGen, rep.Cutoff = gen, man.Cutoff
		for i := range man.Sketches {
			ms := &man.Sketches[i]
			rep.Checkpoint = append(rep.Checkpoint, CheckpointSketch{
				Name: ms.Spec.Name, Kind: ms.Spec.Kind, LSN: ms.LSN, Rows: ms.Rows, Bytes: ms.Size,
			})
		}
	}
	var deliver func(rec *Record) error
	if each != nil {
		deliver = func(rec *Record) error { each(rec); return nil }
	}
	segs, lastLSN, _, err := scanLog(dir, deliver)
	if err != nil {
		return nil, err
	}
	rep.LastLSN = lastLSN
	for i := range segs {
		sr := SegmentReport{
			Path: segs[i].path, FirstLSN: segs[i].firstLSN, LastLSN: segs[i].lastLSN(),
			Records: segs[i].records, Size: segs[i].size, Torn: segs[i].torn,
		}
		if segs[i].tornErr != nil {
			sr.TornErr = segs[i].tornErr.Error()
		}
		rep.Segments = append(rep.Segments, sr)
	}
	return rep, nil
}

// TypeName renders a record's type for display ("create", "ingest", …).
func (r *Record) TypeName() string { return recordTypeName(r.Type) }
