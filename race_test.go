package uss_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	uss "repro"
)

// TestRaceConcurrentIngestAndCachedReads exercises the risky new
// concurrency surface of the versioned snapshot cache: writers mutating
// shards (bumping version counters under shard locks) while readers
// validate and rebuild the shared snapshot, its top-k order and its label
// index through every cached entry point. Run under -race in CI; under
// plain `go test` it still checks basic sanity of concurrently served
// results.
func TestRaceConcurrentIngestAndCachedReads(t *testing.T) {
	s := uss.NewSharded(4, 64, uss.WithSeed(41))
	rows := make([]string, 1<<12)
	for i := range rows {
		rows[i] = fmt.Sprintf("country=c%d|device=d%d", i%17, i%5)
	}
	s.UpdateBatch(rows[:256]) // warm so readers have something to serve

	spec := uss.QuerySpec{
		Where:   []uss.QueryFilter{{Dim: "device", In: []string{"d0", "d1"}}},
		GroupBy: []string{"country"},
	}
	var writersDone atomic.Bool
	var wg, writerWg sync.WaitGroup

	// Writers: one batched, one per-row.
	wg.Add(2)
	writerWg.Add(2)
	go func() {
		defer wg.Done()
		defer writerWg.Done()
		for pass := 0; pass < 20; pass++ {
			for lo := 0; lo < len(rows); lo += 512 {
				s.UpdateBatch(rows[lo : lo+512])
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer writerWg.Done()
		for pass := 0; pass < 10; pass++ {
			for _, r := range rows[:1024] {
				s.Update(r)
			}
		}
	}()
	go func() {
		writerWg.Wait()
		writersDone.Store(true)
	}()

	// Readers: cached TopK, the locked convenience RunQuery, a private
	// prepared engine, Snapshot (+ a mutation of the returned copy,
	// which must be independent of the shared cache), and the prefix and
	// item sums, which read every shard under its lock (the item sum
	// through the pooled routing scratch UpdateBatch also uses).
	heavy := []string{rows[0], rows[1], rows[2], rows[0], "country=zz|device=zz"}
	readers := []func(){
		func() {
			if top := s.TopK(8); len(top) == 0 {
				t.Error("empty TopK during concurrent ingest")
			}
		},
		func() {
			if groups, _, err := s.RunQuery(spec); err != nil || len(groups) == 0 {
				t.Errorf("RunQuery groups=%v err=%v", groups, err)
			}
		},
		func() {
			p := s.QueryEngine().Prepare(spec)
			for i := 0; i < 50; i++ {
				if groups, _, err := p.Run(); err != nil || len(groups) == 0 {
					t.Errorf("PreparedQuery groups=%v err=%v", groups, err)
					return
				}
			}
		},
		func() {
			snap := s.Snapshot(0)
			if snap.Total() <= 0 {
				t.Error("empty snapshot during concurrent ingest")
			}
			snap.Update("country=zz|device=zz", 1)
		},
		func() {
			if est := s.SubsetSumPrefix("country=c1|"); est.Value <= 0 || est.SampleBins == 0 {
				t.Errorf("SubsetSumPrefix during concurrent ingest = %+v", est)
			}
		},
		func() {
			if est := s.SubsetSumItems(heavy...); est.Value <= 0 || est.SampleBins == 0 {
				t.Errorf("SubsetSumItems during concurrent ingest = %+v", est)
			}
		},
	}
	for _, read := range readers {
		wg.Add(1)
		go func(read func()) {
			defer wg.Done()
			for !writersDone.Load() {
				read()
			}
			read() // one final read over the settled state
		}(read)
	}

	wg.Wait()

	want := int64(256 + 20*len(rows) + 10*1024)
	if got := s.Rows(); got != want {
		t.Fatalf("Rows = %d, want %d", got, want)
	}
	if top := s.TopK(1); len(top) != 1 {
		t.Fatalf("settled TopK = %v", top)
	}
}

// TestRaceConcurrentRunQueryQuiescentSketch: read-only concurrent
// querying of a plain (single-writer) sketch must stay race-free even
// though RunQuery lazily builds and reuses a cached engine internally,
// and every caller must get results it can mutate freely.
func TestRaceConcurrentRunQueryQuiescentSketch(t *testing.T) {
	sk := uss.New(256, uss.WithSeed(43))
	for i := 0; i < 5000; i++ {
		sk.Update(fmt.Sprintf("country=c%d|device=d%d", i%9, i%3))
	}
	spec := uss.QuerySpec{GroupBy: []string{"country"}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				groups, skipped, err := uss.RunQuery(sk, spec)
				if err != nil || skipped != 0 || len(groups) != 9 {
					t.Errorf("groups=%d skipped=%d err=%v", len(groups), skipped, err)
					return
				}
				// Results are caller-owned: scribbling on them must not
				// perturb other callers or later queries.
				groups[0].Key["country"] = "mutated"
			}
		}()
	}
	wg.Wait()
	groups, _, _ := uss.RunQuery(sk, spec)
	for _, g := range groups {
		if g.Key["country"] == "mutated" {
			t.Fatal("caller mutation leaked into the engine's cache")
		}
	}
}

// TestRaceParallelSnapshotRefill: concurrent writers keep invalidating
// the sharded snapshot while concurrent readers trigger cache refills
// that race each other. Each refill copies the shards under their locks
// and publishes an immutable snapshot, so -race must stay silent and
// every reader must see a coherent snapshot.
func TestRaceParallelSnapshotRefill(t *testing.T) {
	s := uss.NewSharded(4, 64, uss.WithSeed(47))
	rows := make([]string, 1<<12)
	for i := range rows {
		rows[i] = fmt.Sprintf("item-%d", i%301)
	}
	s.UpdateBatch(rows[:256])

	var wg sync.WaitGroup
	var writersDone atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writersDone.Store(true)
		for pass := 0; pass < 20; pass++ {
			for lo := 0; lo < len(rows); lo += 256 {
				s.UpdateBatch(rows[lo : lo+256])
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !writersDone.Load() {
				if top := s.TopK(10); len(top) == 0 {
					t.Error("empty TopK during concurrent refill")
					return
				}
				if sum := s.SubsetSum(func(string) bool { return true }); sum.Value <= 0 {
					t.Error("non-positive total mass during concurrent refill")
					return
				}
			}
		}()
	}
	wg.Wait()

	if got, want := s.Rows(), int64(256+20*len(rows)); got != want {
		t.Fatalf("Rows = %d, want %d", got, want)
	}
}
