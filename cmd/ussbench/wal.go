package main

// -bench wal: the durability subsystem's two costs — what an ingest
// batch pays to be logged and acknowledged (per fsync policy) and what a
// restart pays to replay the log back into sketches (per log size).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/store"
)

// perfWAL drives acknowledged-append throughput across the fsync
// policies and recovery (checkpoint-free Rebuild) across log sizes. Each
// batch is an append plus WaitDurable, the server's ack gate, so with
// one serial writer the always row pays one fsync per batch.
func perfWAL(w io.Writer, rec *benchRecorder, scale float64) error {
	rows := int(256 * scale)
	if rows < 8 {
		rows = 8
	}
	items := make([]string, rows)
	for i := range items {
		items[i] = fmt.Sprintf("item-%06d", i%997)
	}

	fmt.Fprintf(w, "# wal: %d-row ingest batches, append per policy then recovery vs log size\n", rows)
	fmt.Fprintf(w, "%-34s %14s %14s\n", "append policy", "per batch", "rows/s")
	for _, policy := range []store.SyncPolicy{store.SyncNever, store.SyncAlways} {
		dir, err := os.MkdirTemp("", "ussbench-wal")
		if err != nil {
			return err
		}
		st, err := store.Open(store.Options{Dir: dir, Sync: policy})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		per := timeOp(func() {
			lsn, err := st.AppendIngest("bench", items, nil, nil)
			if err == nil {
				err = st.WaitDurable(context.Background(), lsn)
			}
			if err != nil {
				panic(err)
			}
		})
		st.Close()
		os.RemoveAll(dir)
		fmt.Fprintf(w, "%-34s %14v %14.0f\n", "fsync="+policy.String(), per,
			float64(rows)/per.Seconds())
		rec.set("append_"+policy.String(), per)
		rec.set("append_"+policy.String()+"_rows_per_second", float64(rows)/per.Seconds())
	}

	fmt.Fprintf(w, "\n%-34s %14s %14s\n", "recovery (replay, no checkpoint)", "total", "rows/s")
	for _, batches := range []int{32, 256, 1024} {
		dir, err := os.MkdirTemp("", "ussbench-wal")
		if err != nil {
			return err
		}
		st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNever})
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		spec, _ := json.Marshal(store.SketchSpec{Name: "bench", Kind: "unit", Bins: 4096, Seed: 7})
		if _, err := st.AppendCreate(spec); err != nil {
			os.RemoveAll(dir)
			return err
		}
		for i := 0; i < batches; i++ {
			if _, err := st.AppendIngest("bench", items, nil, nil); err != nil {
				os.RemoveAll(dir)
				return err
			}
		}
		st.Close()
		total := rows * batches
		start := time.Now()
		res, err := store.Rebuild(dir)
		elapsed := time.Since(start)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		if res.Sketches["bench"].Rows != int64(total) {
			return fmt.Errorf("wal bench: replay found %d rows, want %d", res.Sketches["bench"].Rows, total)
		}
		fmt.Fprintf(w, "%-34s %14v %14.0f\n", fmt.Sprintf("%7d rows (%d batches)", total, batches),
			elapsed, float64(total)/elapsed.Seconds())
		rec.set(fmt.Sprintf("recovery_%d_batches", batches), elapsed)
		rec.set(fmt.Sprintf("recovery_%d_batches_rows_per_second", batches), float64(total)/elapsed.Seconds())
	}
	return nil
}
