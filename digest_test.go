package uss_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	uss "repro"
	"repro/internal/workload"
)

// TestSketchDigestsPinned pins the exact bytes three sketch kinds produce
// for a fixed-seed input: a unit sketch, an 8×1024 sharded sketch fed in
// 2000-row batches (perfbench ingest-saturate's geometry) and a rollup.
// The input is AdStream marginal keys on features 0, 3 and 6 — the key
// stream ingest-saturate posts, where most rows miss the sketch — then a
// churn stream of labels that each appear twice, so nearly every row
// evicts a minimum bin. The Stream-Summary's item index only answers
// membership and nothing iterates it, so how the index is built must not
// move a byte here: the RNG draws, the bins' order and every count are
// fixed by the seed alone.
//
// The constants were recorded by running this test, unchanged, three
// times on the tree whose index was still a Go map[string]int32; all
// three runs printed the same digests.
func TestSketchDigestsPinned(t *testing.T) {
	ads, err := workload.NewAdStream(workload.DefaultAdConfig(120000), 31)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for {
		im, ok := ads.Next()
		if !ok {
			break
		}
		rows = append(rows, im.Key(0, 3, 6))
	}
	for i := 0; i < 60000; i++ {
		rows = append(rows, fmt.Sprintf("churn-%d", i/2))
	}

	unit := uss.New(1024, uss.WithSeed(11))
	for _, r := range rows {
		unit.Update(r)
	}
	sharded := uss.NewSharded(8, 1024, uss.WithSeed(12))
	for lo := 0; lo < len(rows); lo += 2000 {
		sharded.UpdateBatch(rows[lo:min(lo+2000, len(rows))])
	}
	roll, err := uss.NewRollup(uss.RollupConfig{Bins: 512, WindowLength: 60, Retain: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		roll.Update(r, int64(i/2500))
	}

	unitBytes, err := unit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	shardBytes, err := sharded.AppendShards(nil)
	if err != nil {
		t.Fatal(err)
	}
	windowBytes, err := roll.AppendWindows(nil)
	if err != nil {
		t.Fatal(err)
	}
	// A restore bulk-loads the bins back into a Stream-Summary; encoding
	// the restored sketch must give the same bytes.
	var restored uss.Sketch
	if err := restored.UnmarshalBinary(unitBytes); err != nil {
		t.Fatal(err)
	}
	restoredBytes, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ws := roll.Windows()

	got := map[string]string{
		"unit.MarshalBinary":   digest(unitBytes),
		"unit.restored":        digest(restoredBytes),
		"unit.TopK":            topKDigest(unit.TopK(50)),
		"sharded.AppendShards": digest(shardBytes),
		"sharded.TopK":         topKDigest(sharded.TopK(50)),
		"rollup.AppendWindows": digest(windowBytes),
		"rollup.TopKRange":     topKDigest(roll.TopKRange(ws[0], ws[len(ws)-1], 50)),
	}
	want := map[string]string{
		"unit.MarshalBinary":   "1d793c00b75688792b8a0b6d1e8d4b61508912a1b1b48a460afd66dfe2e7e70e",
		"unit.restored":        "1d793c00b75688792b8a0b6d1e8d4b61508912a1b1b48a460afd66dfe2e7e70e",
		"unit.TopK":            "c6eaa91ca2577512e4087f65adb588b6527c296d743d9240c7999850a580fbcb",
		"sharded.AppendShards": "f77d05f7821b6be178ecf13f25036c1a805df99c248508eaadb5ea955d31a2a1",
		"sharded.TopK":         "6ced9d064b6b84e0c73a10532fab9d2629ae86f17bc0fa6e53bce57b759f7f9e",
		"rollup.AppendWindows": "ecb7a11345959b373eeb1970d064054d5c08f64f4b68e029b5fb147bc00fa5b0",
		"rollup.TopKRange":     "b97766eb5d1a18de1e71e24c9f63b6b303cc333be29c0e7474e4f8c99c57416f",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest %s, want %s", name, got[name], w)
		}
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// topKDigest hashes each bin's label and the exact bits of its count.
func topKDigest(bins []uss.Bin) string {
	var h hash.Hash = sha256.New()
	for _, b := range bins {
		fmt.Fprintf(h, "%q %016x\n", b.Item, math.Float64bits(b.Count))
	}
	return hex.EncodeToString(h.Sum(nil))
}
