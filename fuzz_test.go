package uss_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	uss "repro"
	"repro/internal/streamsummary"
)

// Fuzz targets run their seed corpus under plain `go test`; use
// `go test -fuzz FuzzX .` for open-ended exploration.

func FuzzSketchUpdate(f *testing.F) {
	f.Add([]byte("abcabcddd"), int64(1))
	f.Add([]byte(""), int64(2))
	f.Add([]byte{0, 1, 2, 3, 255, 254, 0, 0, 7}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		sk := uss.New(4, uss.WithSeed(seed))
		for _, b := range data {
			sk.Update(string([]byte{b}))
		}
		if sk.Total() != float64(len(data)) {
			t.Fatalf("Total = %v after %d rows", sk.Total(), len(data))
		}
		if sk.Size() > sk.Capacity() {
			t.Fatalf("Size %d > Capacity %d", sk.Size(), sk.Capacity())
		}
		var mass float64
		for _, bin := range sk.Bins() {
			if bin.Count < 0 {
				t.Fatalf("negative bin %v", bin)
			}
			mass += bin.Count
		}
		if mass != sk.Total() {
			t.Fatalf("bin mass %v != total %v", mass, sk.Total())
		}
	})
}

// FuzzStreamSummaryOps drives the slab-backed Stream-Summary through
// arbitrary insert / increment / replace / remove sequences — the full
// free-list churn surface — validating CheckInvariants (which audits slab
// accounting, free-list integrity, head words, the index table slot by
// slot and mass conservation) after every operation, and spot-checking
// counts, prefix sums and item sums against a map model at the end. Every
// label a Remove or an eviction drops must then be absent from the index;
// labels are never reused, so none may come back. The summary starts with
// a capacity hint of 8 and inserts run past it, so the table's growth is
// exercised too.
func FuzzStreamSummaryOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 0, 4}, int64(1))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 3, 3, 2, 2, 2}, int64(2))
	f.Add([]byte{4, 4, 4, 0, 0, 4, 4, 1, 2, 3, 4}, int64(3))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		s := streamsummary.New(8)
		model := map[string]int64{}
		// live mirrors the model's keys as a slice so "a random live item"
		// is drawn from rng, not from runtime-randomized map iteration —
		// crashing inputs must replay deterministically.
		var live []string
		resync := func() {
			model = map[string]int64{}
			live = live[:0]
			s.Each(func(item string, count int64) bool {
				model[item] = count
				live = append(live, item)
				return true
			})
		}
		var dropped []string
		gone := func(step int, item string) {
			if s.Contains(item) {
				t.Fatalf("step %d: dropped %q still Contains", step, item)
			}
			if c, ok := s.Count(item); ok {
				t.Fatalf("step %d: dropped %q still counts %d", step, item, c)
			}
			dropped = append(dropped, item)
		}
		nextID := 0
		for step, op := range ops {
			switch op % 5 {
			case 0: // insert a fresh item at a small count
				item := fmt.Sprintf("n%d", nextID)
				nextID++
				c := int64(op / 5 % 4)
				s.Insert(item, c)
				model[item] = c
				live = append(live, item)
			case 1: // increment a random live item
				if len(live) > 0 {
					item := live[rng.Intn(len(live))]
					s.Increment(item)
					model[item]++
				}
			case 2: // increment a random minimum bin
				if _, ok := s.IncrementRandomMin(rng); ok != (len(model) > 0) {
					t.Fatalf("step %d: IncrementRandomMin ok=%v with %d live", step, ok, len(model))
				}
				resync()
			case 3: // replace a random minimum bin's label
				item := fmt.Sprintf("r%d", nextID)
				nextID++
				if _, evicted, ok := s.ReplaceRandomMin(item, rng); ok {
					if _, had := model[evicted]; !had {
						t.Fatalf("step %d: evicted unknown item %q", step, evicted)
					}
					gone(step, evicted)
				}
				resync()
			case 4: // remove a random live item, churning the node free-list
				if len(live) > 0 {
					j := rng.Intn(len(live))
					item := live[j]
					if _, ok := s.Remove(item); !ok {
						t.Fatalf("step %d: Remove(%q) failed on live item", step, item)
					}
					gone(step, item)
					delete(model, item)
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d (op %d): %v", step, op%5, err)
			}
		}
		if s.Len() != len(model) {
			t.Fatalf("Len %d, model %d", s.Len(), len(model))
		}
		for item, want := range model {
			if got, ok := s.Count(item); !ok || got != want {
				t.Fatalf("Count(%q) = %d,%v, want %d", item, got, ok, want)
			}
		}
		for _, p := range []string{"", "n", "r", "n1", "r1", "n10", "n1\x00"} {
			var want int64
			var wantHits int
			for item, c := range model {
				if strings.HasPrefix(item, p) {
					want += c
					wantHits++
				}
			}
			if got, hits := s.PrefixSum(p); got != float64(want) || hits != wantHits {
				t.Fatalf("PrefixSum(%q) = %v/%d, want %d/%d", p, got, hits, want, wantHits)
			}
		}
		var want int64
		for _, c := range model {
			want += c
		}
		items := append(append([]string{"absent"}, live...), live...)
		if got, hits := s.ItemsSum(items); got != float64(want) || hits != len(model) {
			t.Fatalf("ItemsSum(every live item twice) = %v/%d, want %d/%d", got, hits, want, len(model))
		}
		if got, hits := s.ItemsSum(dropped); got != 0 || hits != 0 {
			t.Fatalf("ItemsSum(every dropped item) = %v/%d, want 0/0", got, hits)
		}
	})
}

func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte("hello world hello"), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		sk := uss.New(8, uss.WithSeed(seed))
		for i := 0; i+2 <= len(data); i += 2 {
			sk.Update(string(data[i : i+2]))
		}
		blob, err := sk.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back uss.Sketch
		if err := back.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		if back.Total() != sk.Total() || back.Size() != sk.Size() {
			t.Fatalf("round trip changed totals: %v/%d vs %v/%d",
				back.Total(), back.Size(), sk.Total(), sk.Size())
		}
		for _, b := range sk.Bins() {
			if got := back.Estimate(b.Item); got != b.Count {
				t.Fatalf("round trip changed %q: %v vs %v", b.Item, got, b.Count)
			}
		}
		// v2 encode → decode → re-encode is a fixed point: the restored
		// sketch re-encodes to bytes that decode to the same bins, and a
		// quiescent sketch marshals identically every time.
		re1, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		re2, err := back.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(re1) != string(re2) {
			t.Fatal("re-encode of quiescent restored sketch not byte-stable")
		}
		b1, err := uss.DecodeBins(blob)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := uss.DecodeBins(re1)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2 := sortedBins(b1), sortedBins(b2)
		if len(s1) != len(s2) {
			t.Fatalf("re-encode changed bin count: %d vs %d", len(s1), len(s2))
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("re-encode changed bin %d: %+v vs %+v", i, s1[i], s2[i])
			}
		}
		// A v1 gob snapshot of the same state must still decode and agree
		// with the v2 restore.
		v1 := gobEncodeV1(t, v1Snapshot{
			Version: 1, Capacity: sk.Capacity(), Deterministic: sk.Deterministic(),
			Rows: sk.Rows(), Bins: sk.Bins(),
		})
		var old uss.Sketch
		if err := old.UnmarshalBinary(v1); err != nil {
			t.Fatalf("v1 gob snapshot no longer decodes: %v", err)
		}
		if old.Total() != sk.Total() || old.Size() != sk.Size() {
			t.Fatalf("v1 decode changed totals: %v/%d vs %v/%d",
				old.Total(), old.Size(), sk.Total(), sk.Size())
		}
		for _, b := range sk.Bins() {
			if got := old.Estimate(b.Item); got != b.Count {
				t.Fatalf("v1 decode changed %q: %v vs %v", b.Item, got, b.Count)
			}
		}
	})
}

func FuzzUnmarshalGarbage(f *testing.F) {
	f.Add([]byte("garbage"))
	f.Add([]byte{})
	// Valid snapshots in both formats as seeds so mutations explore
	// near-valid inputs on the v2 and the legacy gob decode paths.
	sk := uss.New(4, uss.WithSeed(1))
	sk.Update("x")
	if blob, err := sk.MarshalBinary(); err == nil {
		f.Add(blob)
	}
	f.Add(gobEncodeV1(f, v1Snapshot{
		Version: 1, Capacity: 4, Rows: 1, Bins: []uss.Bin{{Item: "x", Count: 1}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var back uss.Sketch
		// Must never panic; errors are fine. A successful decode must
		// yield a structurally sound sketch.
		if err := back.UnmarshalBinary(data); err == nil {
			if back.Size() > back.Capacity() {
				t.Fatalf("decoded sketch overfull: %d > %d", back.Size(), back.Capacity())
			}
			back.Update("post")
			if back.Estimate("post") < 0 {
				t.Fatal("decoded sketch broken")
			}
		}
	})
}
