package streamsummary

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Tests for the head word and the indexed sums built on it: PrefixSum and
// ItemsSum must agree with a scan of Each under every label-writing path,
// including Remove and the free-list reuse it causes.

func TestHeadOf(t *testing.T) {
	for _, s := range []string{"", "a", "\x00", "a\x00", "abcdefg", "abcdefgh", "abcdefghi", "日本語", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"} {
		var pad [8]byte
		copy(pad[:], s)
		if got, want := headOf(s), binary.BigEndian.Uint64(pad[:]); got != want {
			t.Errorf("headOf(%q) = %#016x, want %#016x", s, got, want)
		}
	}
}

// scanSums is the reference: a predicate scan over Each, adding counts
// as core.Sketch.SubsetSum does.
func scanSums(s *Summary, match func(string) bool) (sum float64, hits int) {
	s.Each(func(item string, count int64) bool {
		if match(item) {
			sum += float64(count)
			hits++
		}
		return true
	})
	return sum, hits
}

func TestPrefixAndItemsSumMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	units := []string{"a", "a", "a", "b", "\x00", "é", "日"}
	label := func() string {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteString(units[rng.Intn(len(units))])
		}
		return sb.String()
	}
	check := func(trial, step int, s *Summary, live []string) {
		t.Helper()
		for q := 0; q < 20; q++ {
			p := label()
			if len(live) > 0 && q%4 != 0 {
				p = live[rng.Intn(len(live))]
				if n := rng.Intn(13); n < len(p) {
					p = p[:n]
				}
				if q%3 == 0 {
					p += "\x00"
				}
			}
			gs, gh := s.PrefixSum(p)
			ws, wh := scanSums(s, func(item string) bool { return strings.HasPrefix(item, p) })
			if gs != ws || gh != wh {
				t.Fatalf("trial %d step %d: PrefixSum(%q) = %v/%d, scan %v/%d", trial, step, p, gs, gh, ws, wh)
			}
			items := []string{label()}
			for i := rng.Intn(6); i > 0 && len(live) > 0; i-- {
				items = append(items, live[rng.Intn(len(live))])
			}
			items = append(items, items[rng.Intn(len(items))])
			set := map[string]bool{}
			for _, it := range items {
				set[it] = true
			}
			gs, gh = s.ItemsSum(items)
			ws, wh = scanSums(s, func(item string) bool { return set[item] })
			if gs != ws || gh != wh {
				t.Fatalf("trial %d step %d: ItemsSum(%q) = %v/%d, scan %v/%d", trial, step, items, gs, gh, ws, wh)
			}
		}
	}
	for trial := 0; trial < 100; trial++ {
		s := New(16)
		var live []string
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(5); {
			case op == 0 || len(live) == 0:
				if it := label(); !s.Contains(it) {
					s.Insert(it, int64(rng.Intn(4)))
					live = append(live, it)
				}
			case op == 1:
				s.Increment(live[rng.Intn(len(live))])
			case op == 2:
				s.IncrementRandomMin(rng)
			case op == 3:
				if it := label(); !s.Contains(it) {
					_, evicted, _ := s.ReplaceRandomMin(it, rng)
					for j := range live {
						if live[j] == evicted {
							live[j] = it
							break
						}
					}
				}
			default:
				j := rng.Intn(len(live))
				s.Remove(live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if step%25 == 0 {
				check(trial, step, s, live)
			}
		}
		check(trial, 300, s, live)

		// A bulk load writes heads too. It takes positive counts in
		// descending order; Bins lists them ascending.
		var desc []Bin
		bins := s.Bins()
		for i := len(bins) - 1; i >= 0 && bins[i].Count > 0; i-- {
			desc = append(desc, bins[i])
		}
		loaded := New(16)
		if err := loaded.LoadDescending(desc); err != nil {
			t.Fatal(err)
		}
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatalf("trial %d loaded: %v", trial, err)
		}
		check(trial, -1, loaded, live)
	}
}

// TestItemsSumPastStackBuffer: more matched items than the on-stack probe
// buffer holds, each listed twice, still count once each.
func TestItemsSumPastStackBuffer(t *testing.T) {
	s := New(100)
	var items []string
	var want float64
	for i := 0; i < 100; i++ {
		it := fmt.Sprintf("i%d", i)
		s.Insert(it, int64(i%7))
		want += float64(i % 7)
		items = append(items, it, it)
	}
	if sum, hits := s.ItemsSum(items); sum != want || hits != 100 {
		t.Fatalf("ItemsSum = %v/%d, want %v/100", sum, hits, want)
	}
}

// TestIndexedSumsZeroAlloc: prefix sums never allocate, and item sums do
// not while the matched items fit the on-stack probe buffer.
func TestIndexedSumsZeroAlloc(t *testing.T) {
	s := New(256)
	items := make([]string, 16)
	for i := 0; i < 256; i++ {
		it := fmt.Sprintf("label-%d", i)
		s.Insert(it, int64(i%5))
		if i < len(items) {
			items[i] = it
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.PrefixSum("label-1")
		s.PrefixSum("label-12x")
		s.ItemsSum(items)
	}); avg != 0 {
		t.Errorf("PrefixSum + ItemsSum allocate %v/run, want 0", avg)
	}
}

// TestIndexedSumsAddInScanOrder: past 2⁵³ float64 addition is no longer
// exact, so the indexed sums must add counts in the order Each visits
// them (ascending count) to stay bit-identical to a scan. Summed largest
// first, the nine 1s would each round away.
func TestIndexedSumsAddInScanOrder(t *testing.T) {
	s := New(16)
	items := []string{"big"}
	s.Insert("big", 1<<53)
	for i := 0; i < 9; i++ {
		items = append(items, fmt.Sprintf("b%d", i))
		s.Insert(items[len(items)-1], 1)
	}
	want, wantHits := scanSums(s, func(string) bool { return true })
	if want == 1<<53 {
		t.Fatal("reference scan lost the small counts; the test no longer distinguishes orders")
	}
	if got, hits := s.PrefixSum("b"); got != want || hits != wantHits {
		t.Errorf("PrefixSum = %v/%d, scan %v/%d", got, hits, want, wantHits)
	}
	if got, hits := s.ItemsSum(items); got != want || hits != wantHits {
		t.Errorf("ItemsSum = %v/%d, scan %v/%d", got, hits, want, wantHits)
	}
}
