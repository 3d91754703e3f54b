// Command uss is a streaming sketch tool: it builds Unbiased Space Saving
// sketches from delimited row streams, answers subset-sum and top-k queries
// with confidence intervals, and merges sketch files.
//
// Usage:
//
//	uss build -m 4096 -field 0 -out clicks.sketch  < clicks.tsv
//	uss query -sketch clicks.sketch -top 20
//	uss query -sketch clicks.sketch -item user-42
//	uss query -sketch clicks.sketch -prefix "us-east|" -level 0.95
//	uss merge -m 4096 -out week.sketch day1.sketch day2.sketch ...
//	uss roundtrip -sketch old.sketch -out new.sketch
//	uss wal inspect -dir /var/lib/ussd
//	uss wal replay -dir /var/lib/ussd -top 10
//	uss repl status -url http://127.0.0.1:8632
//	uss repl promote -url http://follower:8633
//	uss cluster status -url http://node-a:8632 -name clicks
//	uss cluster antientropy -url http://node-a:8632
//	uss trace -url http://node-a:8632 -url http://node-b:8632 4bf92f3577b34da6a3ce929d0e0e4736
//	uss top -url http://127.0.0.1:8632 -k 10
//
// Rows are read one per line; -field selects a tab-separated column as the
// item key (-1 uses the whole line).
//
// merge decodes only each input's bin list (no sketch is rebuilt per
// input) and reduces the lists directly. roundtrip inspects a snapshot in
// either wire format (v2 binary or legacy v1 gob), re-encodes it as v2,
// verifies the round trip bin for bin, and optionally writes the upgraded
// snapshot — the migration path for pre-v2 sketch files.
//
// wal debugs a ussd durability directory offline, read-only: inspect
// lists the checkpoint, segment health (torn tails, corruption) and
// records; replay runs the full recovery path — checkpoint restore plus
// log-tail replay — and reports each sketch's recovered state, its top-k,
// and optionally writes recovered snapshots to files.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	uss "repro"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "merge":
		err = runMerge(os.Args[2:])
	case "roundtrip":
		err = runRoundTrip(os.Args[2:])
	case "wal":
		err = runWAL(os.Args[2:])
	case "repl":
		err = runRepl(os.Args[2:])
	case "cluster":
		err = runCluster(os.Args[2:])
	case "trace":
		err = runTrace(os.Args[2:])
	case "top":
		err = runTop(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uss:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  uss build -m <bins> [-field N] [-seed S] [-deterministic] -out FILE  < rows
  uss query -sketch FILE [-top K] [-item X] [-prefix P] [-contains S] [-level L]
  uss merge -m <bins> [-reduction pairwise|pivotal|misra-gries] -out FILE IN...
  uss roundtrip -sketch FILE [-out FILE]
  uss wal inspect -dir DATADIR [-records]
  uss wal replay -dir DATADIR [-top K] [-out-dir DIR]
  uss repl status [-url URL]
  uss repl promote -url URL
  uss cluster status [-url URL] [-name SKETCH]
  uss cluster antientropy -url URL
  uss trace [-url URL]... [-json] TRACEID
  uss top [-url URL] [-k K]`)
	os.Exit(2)
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	m := fs.Int("m", 4096, "number of bins")
	field := fs.Int("field", -1, "tab-separated field to use as item key (-1 = whole line)")
	seed := fs.Int64("seed", 0, "random seed (0 = random)")
	det := fs.Bool("deterministic", false, "use classic (biased) Space Saving")
	out := fs.String("out", "", "output sketch file (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("build: -out is required")
	}
	var opts []uss.Option
	if *seed != 0 {
		opts = append(opts, uss.WithSeed(*seed))
	}
	if *det {
		opts = append(opts, uss.WithDeterministic())
	}
	sk := uss.New(*m, opts...)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows := int64(0)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		key := line
		if *field >= 0 {
			parts := strings.Split(line, "\t")
			if *field >= len(parts) {
				continue
			}
			key = parts[*field]
		}
		sk.Update(key)
		rows++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("build: reading stdin: %w", err)
	}
	if err := writeSketch(*out, sk); err != nil {
		return err
	}
	fmt.Printf("built sketch: %d rows, %d/%d bins, min count %.0f → %s\n",
		rows, sk.Size(), sk.Capacity(), sk.MinCount(), *out)
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	path := fs.String("sketch", "", "sketch file (required)")
	top := fs.Int("top", 0, "print the top-K items")
	item := fs.String("item", "", "estimate one item's count")
	prefix := fs.String("prefix", "", "subset sum over items with this prefix")
	contains := fs.String("contains", "", "subset sum over items containing this substring")
	level := fs.Float64("level", 0.95, "confidence level for intervals")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("query: -sketch is required")
	}
	sk, err := readSketch(*path)
	if err != nil {
		return err
	}
	fmt.Printf("sketch: %d rows, %d/%d bins, total %.0f, min count %.0f\n",
		sk.Rows(), sk.Size(), sk.Capacity(), sk.Total(), sk.MinCount())

	printEst := func(label string, e uss.Estimate) {
		lo, hi := e.ConfidenceInterval(*level)
		fmt.Printf("%s: %.1f ± %.1f  (%.0f%% CI [%.1f, %.1f], %d matching bins)\n",
			label, e.Value, e.StdErr, *level*100, lo, hi, e.SampleBins)
	}
	ran := false
	if *item != "" {
		printEst("item "+*item, sk.EstimateWithSE(*item))
		ran = true
	}
	if *prefix != "" {
		printEst("prefix "+*prefix, sk.SubsetSumPrefix(*prefix))
		ran = true
	}
	if *contains != "" {
		printEst("contains "+*contains, sk.SubsetSum(func(s string) bool { return strings.Contains(s, *contains) }))
		ran = true
	}
	if *top > 0 {
		for i, b := range sk.TopK(*top) {
			fmt.Printf("%3d. %-40s %12.1f\n", i+1, b.Item, b.Count)
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("query: give one of -top, -item, -prefix, -contains")
	}
	return nil
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	m := fs.Int("m", 4096, "bins in the merged sketch")
	red := fs.String("reduction", "pairwise", "pairwise | pivotal | misra-gries")
	out := fs.String("out", "", "output sketch file (required)")
	fs.Parse(args)
	if *out == "" || fs.NArg() == 0 {
		return fmt.Errorf("merge: need -out and at least one input sketch")
	}
	var reduction uss.Reduction
	switch *red {
	case "pairwise":
		reduction = uss.Pairwise
	case "pivotal":
		reduction = uss.Pivotal
	case "misra-gries":
		reduction = uss.MisraGries
	default:
		return fmt.Errorf("merge: unknown reduction %q", *red)
	}
	// Decode each input's bins directly off the wire — no per-input sketch
	// is materialized; the lists feed the reduction as-is.
	lists := make([][]uss.Bin, 0, fs.NArg())
	for _, p := range fs.Args() {
		blob, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("reading %s: %w", p, err)
		}
		bins, err := uss.DecodeBins(blob)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		lists = append(lists, bins)
	}
	bins := uss.MergeBins(*m, reduction, lists...)
	var total float64
	for _, b := range bins {
		total += b.Count
	}
	// The reduced bins ship directly as a weighted snapshot — the whole
	// merge ran without materializing a single sketch.
	blob, err := uss.EncodeBins(*m, bins)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	fmt.Printf("merged %d sketches: %d bins, total %.1f → %s\n", fs.NArg(), len(bins), total, *out)
	return nil
}

func runRoundTrip(args []string) error {
	fs := flag.NewFlagSet("roundtrip", flag.ExitOnError)
	path := fs.String("sketch", "", "sketch file (required)")
	out := fs.String("out", "", "write the re-encoded v2 snapshot here (optional)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("roundtrip: -sketch is required")
	}
	blob, err := os.ReadFile(*path)
	if err != nil {
		return fmt.Errorf("reading %s: %w", *path, err)
	}
	info, err := uss.InspectSnapshot(blob)
	if err != nil {
		return fmt.Errorf("%s: %w", *path, err)
	}
	kind := "unit"
	if info.Weighted {
		kind = "weighted"
	}
	mode := "unbiased"
	if info.Deterministic {
		mode = "deterministic"
	}
	fmt.Printf("%s: format v%d, %s %s sketch, %d/%d bins, %d rows, %d bytes\n",
		*path, info.Version, mode, kind, info.NumBins, info.Capacity, info.Rows, len(blob))

	// Restore through the full unmarshal path, re-encode as v2, and verify
	// the round trip by comparing decoded bin lists item for item.
	var re []byte
	if info.Weighted {
		var sk uss.WeightedSketch
		if err := sk.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("%s: %w", *path, err)
		}
		if re, err = sk.MarshalBinary(); err != nil {
			return err
		}
	} else {
		var sk uss.Sketch
		if err := sk.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("%s: %w", *path, err)
		}
		if re, err = sk.MarshalBinary(); err != nil {
			return err
		}
	}
	if err := verifySameBins(blob, re); err != nil {
		return fmt.Errorf("roundtrip verification failed: %w", err)
	}
	fmt.Printf("re-encoded v%d: %d bytes (%.2fx input), round trip verified\n",
		2, len(re), float64(len(re))/float64(len(blob)))
	if *out != "" {
		if err := os.WriteFile(*out, re, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", *out, err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	return nil
}

// verifySameBins checks that two snapshots carry the same bins.
func verifySameBins(a, b []byte) error {
	ab, err := uss.DecodeBins(a)
	if err != nil {
		return err
	}
	bb, err := uss.DecodeBins(b)
	if err != nil {
		return err
	}
	if len(ab) != len(bb) {
		return fmt.Errorf("bin counts differ: %d vs %d", len(ab), len(bb))
	}
	canon := func(bins []uss.Bin) {
		sort.Slice(bins, func(i, j int) bool {
			if bins[i].Item != bins[j].Item {
				return bins[i].Item < bins[j].Item
			}
			return bins[i].Count < bins[j].Count
		})
	}
	canon(ab)
	canon(bb)
	for i := range ab {
		if ab[i] != bb[i] {
			return fmt.Errorf("bin %d differs: %+v vs %+v", i, ab[i], bb[i])
		}
	}
	return nil
}

func writeSketch(path string, sk *uss.Sketch) error {
	blob, err := sk.MarshalBinary()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

func readSketch(path string) (*uss.Sketch, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	var sk uss.Sketch
	if err := sk.UnmarshalBinary(blob); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sk, nil
}
