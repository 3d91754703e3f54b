package main

import (
	"bytes"
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// keyFeatures are the feature positions whose values make every row's
// 3-way marginal key, "0=v|3=v|6=v": cardinalities 50, 1000 and 200 under
// the ad stream's skew, so the key space is large and heavy-tailed and
// the sketches evict constantly.
var keyFeatures = []int{0, 3, 6}

// Rollup geometry shared by every workload: rows carry a timestamp in
// one of rollupWindows windows of rollupWindowLen time units; the
// trickle writes into the newest (live) window.
const (
	rollupWindowLen = 60
	rollupWindows   = 24
)

// genKeys draws n rows from the ad stream for seed and renders each as
// its marginal key.
func genKeys(seed int64, n int) ([]string, error) {
	ads, err := workload.NewAdStream(workload.DefaultAdConfig(int64(n)), seed)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, n)
	for {
		im, ok := ads.Next()
		if !ok {
			return keys, nil
		}
		keys = append(keys, im.Key(keyFeatures...))
	}
}

// predicate is one subset a /sum request selects, in both its wire form
// (the query string) and as a Go predicate the generator counts with.
type predicate struct {
	query string
	match func(string) bool
}

func prefixPred(p string) predicate {
	return predicate{
		query: "prefix=" + url.QueryEscape(p),
		match: func(s string) bool { return strings.HasPrefix(s, p) },
	}
}

func itemsPred(items []string) predicate {
	set := make(map[string]bool, len(items))
	for _, it := range items {
		set[it] = true
	}
	return predicate{
		query: "items=" + url.QueryEscape(strings.Join(items, ",")),
		match: func(s string) bool { return set[s] },
	}
}

// heaviest returns the n most frequent keys (ties by key).
func heaviest(keys []string, n int) []string {
	counts := make(map[string]int)
	for _, k := range keys {
		counts[k]++
	}
	all := make([]string, 0, len(counts))
	for k := range counts {
		all = append(all, k)
	}
	sort.Slice(all, func(i, j int) bool {
		if counts[all[i]] != counts[all[j]] {
			return counts[all[i]] > counts[all[j]]
		}
		return all[i] < all[j]
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// batch is one prepared ingest request body and what it contributes to
// the exact counts the output checks compare against.
type batch struct {
	body []byte
	rows int
	// hits[p] counts the batch's rows matching check predicate p.
	hits []int64
}

// makeBatches cuts keys into text ingest bodies of size rows each (the
// last one holds the remainder). With at non-nil every line carries a
// timestamp (rollup rows, "key TAB at").
func makeBatches(keys []string, size int, at func(i int) int64, checks []predicate) []batch {
	var out []batch
	for lo := 0; lo < len(keys); lo += size {
		hi := min(lo+size, len(keys))
		var buf bytes.Buffer
		b := batch{rows: hi - lo, hits: make([]int64, len(checks))}
		for i := lo; i < hi; i++ {
			buf.WriteString(keys[i])
			if at != nil {
				buf.WriteByte('\t')
				buf.WriteString(strconv.FormatInt(at(i), 10))
			}
			buf.WriteByte('\n')
			for p, c := range checks {
				if c.match(keys[i]) {
					b.hits[p]++
				}
			}
		}
		b.body = buf.Bytes()
		out = append(out, b)
	}
	return out
}

// spreadWindows assigns row i of n to one of the rollup windows, oldest
// first, so a prefill covers every window evenly.
func spreadWindows(n int) func(i int) int64 {
	return func(i int) int64 {
		w := int64(i) * rollupWindows / int64(n)
		return w*rollupWindowLen + int64(i)%rollupWindowLen
	}
}

// liveWindow stamps every row into the newest window.
func liveWindow(i int) int64 {
	return (rollupWindows-1)*rollupWindowLen + int64(i)%rollupWindowLen
}

// inputs is everything a workload sends, generated up front from the
// seed so the timed window measures the servers, not the generator.
type inputs struct {
	// checks are the /sum predicates whose answers the output checks
	// compare against exact counts.
	checks []predicate
	// prefill and prefillRollup are loaded during set-up.
	prefill, prefillRollup []batch
	// ingest and ingestRollup are cycled through by the timed window.
	ingest, ingestRollup []batch

	// The read mixes the timed window (or the read phase) cycles through.
	sums    []predicate
	queries [][]byte
	ranges  []rangeSpec
	topK    []int
}

// rangeSpec is one rollup range-sum request.
type rangeSpec struct {
	from, to int64
	pred     predicate
}

// query renders the request's query string.
func (rs rangeSpec) query() string {
	return fmt.Sprintf("from=%d&to=%d&%s", rs.from, rs.to, rs.pred.query)
}

// inputSpec sizes one workload's inputs.
type inputSpec struct {
	prefillRows, prefillRollupRows int
	ingestBatches, ingestRows      int // batch count and rows per batch
	rollupBatches                  int // rollup trickle batches (ingestRows each)
}

// makeInputs generates a workload's inputs for seed: one ad stream feeds
// the prefill and then the timed batches, so the prefill's heavy hitters
// stay heavy.
func makeInputs(seed int64, sp inputSpec) (*inputs, error) {
	total := sp.prefillRows + sp.prefillRollupRows + sp.ingestBatches*sp.ingestRows + sp.rollupBatches*sp.ingestRows
	keys, err := genKeys(seed, total)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	heavy := heaviest(keys, 16)
	in.checks = []predicate{prefixPred("0=0|"), prefixPred("0=1|"), prefixPred("0=2|"), itemsPred(heavy[:4])}

	take := func(n int) []string {
		k := keys[:n]
		keys = keys[n:]
		return k
	}
	if sp.prefillRows > 0 {
		in.prefill = makeBatches(take(sp.prefillRows), 5000, nil, in.checks)
	}
	if sp.prefillRollupRows > 0 {
		in.prefillRollup = makeBatches(take(sp.prefillRollupRows), 5000, spreadWindows(sp.prefillRollupRows), nil)
	}
	in.ingest = makeBatches(take(sp.ingestBatches*sp.ingestRows), sp.ingestRows, nil, in.checks)
	if sp.rollupBatches > 0 {
		in.ingestRollup = makeBatches(take(sp.rollupBatches*sp.ingestRows), sp.ingestRows, liveWindow, nil)
	}

	for v := 0; v < 8; v++ {
		in.sums = append(in.sums, prefixPred(fmt.Sprintf("0=%d|", v)))
	}
	in.sums = append(in.sums, itemsPred(heavy[:4]), itemsPred(heavy))
	in.queries = [][]byte{
		[]byte(`{"where":[{"dim":"0","in":["0","1"]}],"group_by":["6"]}`),
		[]byte(`{"where":[{"dim":"6","in":["0","1","2"]}],"group_by":["0"]}`),
		[]byte(`{"group_by":["0"]}`),
		[]byte(`{"where":[{"dim":"3","in":["0","1","2","3"]}],"group_by":["0","6"]}`),
	}
	for _, span := range []int{1, 6, 12, rollupWindows} {
		from := int64(rollupWindows-span) * rollupWindowLen
		to := int64(rollupWindows)*rollupWindowLen - 1
		for v := 0; v < 3; v++ {
			in.ranges = append(in.ranges, rangeSpec{from: from, to: to, pred: prefixPred(fmt.Sprintf("0=%d|", v))})
		}
	}
	in.topK = []int{10, 50}
	return in, nil
}
