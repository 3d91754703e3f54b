package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/labelidx"
)

// engineRows builds a deterministic 3-dim stream with an overflowing
// sketch so MinCount > 0 and the equation-5 errors are non-trivial.
func engineRows(n int) []string {
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("country=c%d|device=d%d|ad=a%d", i%7, i%3, i%211)
	}
	return rows
}

func engineQueries() []Query {
	return []Query{
		{},
		{GroupBy: []string{"country"}},
		{GroupBy: []string{"country", "device"}},
		{Where: []Filter{Eq("device", "d1")}, GroupBy: []string{"country"}},
		{Where: []Filter{{Dim: "device", In: []string{"d0", "d2"}}}, GroupBy: []string{"ad"}},
		{Where: []Filter{Eq("nosuchdim", "x")}, GroupBy: []string{"country"}},
		{Where: []Filter{Eq("device", "nosuchvalue")}},
		{GroupBy: []string{"nosuchdim"}},
		{GroupBy: []string{"device", "country"}}, // non-alphabetical order
	}
}

// TestEngineMatchesRun pins the columnar engine to the one-shot Run
// evaluation: identical groups, order, key strings, estimates and skip
// tallies for a spread of query shapes.
func TestEngineMatchesRun(t *testing.T) {
	sk := core.New(256, core.Unbiased, rand.New(rand.NewSource(17)))
	for _, r := range engineRows(20000) {
		sk.Update(r)
	}
	sk.Update("foreignlabel") // exercise the skip tally

	eng := NewEngine(sk)
	for qi, q := range engineQueries() {
		want, wantSkip, err := Run(sk, q)
		if err != nil {
			t.Fatal(err)
		}
		p := eng.Prepare(q)
		for rep := 0; rep < 3; rep++ {
			got, gotSkip, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if gotSkip != wantSkip {
				t.Errorf("q%d rep%d: skipped %d, want %d", qi, rep, gotSkip, wantSkip)
			}
			if len(got) != len(want) {
				t.Fatalf("q%d rep%d: %d groups, want %d", qi, rep, len(got), len(want))
			}
			for i := range got {
				if got[i].KeyString() != want[i].KeyString() {
					t.Errorf("q%d rep%d group %d: key %q, want %q", qi, rep, i, got[i].KeyString(), want[i].KeyString())
				}
				if got[i].Sum != want[i].Sum {
					t.Errorf("q%d rep%d group %q: %+v, want %+v", qi, rep, got[i].KeyString(), got[i].Sum, want[i].Sum)
				}
				if !reflect.DeepEqual(got[i].Key, want[i].Key) && len(got[i].Key)+len(want[i].Key) > 0 {
					t.Errorf("q%d rep%d group %d: Key %v, want %v", qi, rep, i, got[i].Key, want[i].Key)
				}
			}
		}
	}
}

// TestEngineInvalidation: updating the sketch between runs must be
// reflected in the next result — version revalidation, not staleness.
func TestEngineInvalidation(t *testing.T) {
	sk := core.New(64, core.Unbiased, rand.New(rand.NewSource(5)))
	sk.Update("k=a")
	eng := NewEngine(sk)
	p := eng.Prepare(Query{GroupBy: []string{"k"}})
	got, _, _ := p.Run()
	if len(got) != 1 || got[0].Sum.Value != 1 {
		t.Fatalf("first run = %+v", got)
	}
	sk.Update("k=a")
	sk.Update("k=b")
	got, _, _ = p.Run()
	if len(got) != 2 || got[0].Sum.Value != 2 {
		t.Fatalf("post-update run = %+v", got)
	}
	// The same via Engine.Run's spec-identity fast path.
	sk.Update("k=b")
	got, _, _ = eng.Run(Query{GroupBy: []string{"k"}})
	if len(got) != 2 || got[0].Sum.Value != 2 || got[1].Sum.Value != 2 {
		t.Fatalf("Engine.Run post-update = %+v", got)
	}
}

// TestEngineFallbackWideGroupBy: a group-by whose packed key exceeds 64
// bits falls back to the map evaluator and still matches Run.
func TestEngineFallbackWideGroupBy(t *testing.T) {
	sk := core.NewWeighted(1<<14, rand.New(rand.NewSource(6)))
	for i := 0; i < 9000; i++ {
		sk.Update(fmt.Sprintf("a=v%d|b=v%d|c=v%d|d=v%d|e=v%d", i, i, i, i, i%4), 1)
	}
	q := Query{GroupBy: []string{"a", "b", "c", "d", "e"}}
	want, _, _ := Run(sk, q)
	eng := NewEngine(sk)
	p := eng.Prepare(q)
	got, _, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fallback: %d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].KeyString() != want[i].KeyString() || got[i].Sum != want[i].Sum {
			t.Fatalf("fallback group %d: %q %+v, want %q %+v",
				i, got[i].KeyString(), got[i].Sum, want[i].KeyString(), want[i].Sum)
		}
	}
}

// TestKeyStringFallback: Groups built by hand (no evaluator) still render
// sorted-dimension key strings.
func TestKeyStringFallback(t *testing.T) {
	g := Group{Key: map[string]string{"b": "2", "a": "1"}}
	if got := g.KeyString(); got != "a=1|b=2" {
		t.Errorf("KeyString = %q", got)
	}
	if got := (Group{}).KeyString(); got != "*" {
		t.Errorf("empty KeyString = %q", got)
	}
}

// TestPreparedSpecIsolation: mutating the caller's spec slices after
// Prepare must not affect the compiled query.
func TestPreparedSpecIsolation(t *testing.T) {
	sk := core.New(64, core.Unbiased, rand.New(rand.NewSource(7)))
	sk.Update("k=a|j=x")
	sk.Update("k=b|j=x")
	where := []Filter{Eq("k", "a")}
	eng := NewEngine(sk)
	p := eng.Prepare(Query{Where: where})
	where[0].In[0] = "b"
	got, _, _ := p.Run()
	if len(got) != 1 || got[0].Sum.SampleBins != 1 || got[0].Sum.Value != 1 {
		t.Fatalf("spec mutated after Prepare leaked: %+v", got)
	}
}

// plainBinner hides a sketch's Version, so an engine over it cannot tell
// whether the sketch moved.
type plainBinner struct{ s *core.Sketch }

func (b plainBinner) Bins() []core.Bin  { return b.s.Bins() }
func (b plainBinner) MinCount() float64 { return b.s.MinCount() }

// swapSnapshotter is a Snapshotter whose snapshot (bins plus a fresh
// index) is replaced by hand, as a sharded sketch's is when a shard moves.
type swapSnapshotter struct {
	bins []core.Bin
	idx  *labelidx.Index
}

func (s *swapSnapshotter) set(bins []core.Bin) { s.bins, s.idx = bins, labelidx.New(bins) }

func (s *swapSnapshotter) Bins() []core.Bin  { return s.bins }
func (s *swapSnapshotter) MinCount() float64 { return 0 }
func (s *swapSnapshotter) QuerySnapshot() ([]core.Bin, *labelidx.Index, float64) {
	return s.bins, s.idx, 0
}

// TestPreparedMemo: a Prepared answers an unchanged source from its last
// evaluation and evaluates again once the engine's generation moves — on
// a Version move (unit, weighted), a new snapshot (sharded), and on every
// call for a source that cannot say whether it moved.
func TestPreparedMemo(t *testing.T) {
	const sentinel = -42
	q := Query{GroupBy: []string{"k"}}
	unit := core.New(64, core.Unbiased, rand.New(rand.NewSource(1)))
	weighted := core.NewWeighted(64, rand.New(rand.NewSource(2)))
	snap := &swapSnapshotter{}
	snap.set([]core.Bin{{Item: "k=a", Count: 1}})
	plain := core.New(64, core.Unbiased, rand.New(rand.NewSource(3)))
	unit.Update("k=a")
	weighted.Update("k=a", 1)
	plain.Update("k=a")
	cases := []struct {
		name  string
		src   Binner
		write func()
		memo  bool
	}{
		{"unit", unit, func() { unit.Update("k=a") }, true},
		{"weighted", weighted, func() { weighted.Update("k=a", 1) }, true},
		{"sharded", snap, func() { snap.set([]core.Bin{{Item: "k=a", Count: 2}}) }, true},
		{"plain", plainBinner{plain}, func() { plain.Update("k=a") }, false},
	}
	for _, c := range cases {
		p := NewEngine(c.src).Prepare(q)
		got, _, _ := p.Run()
		if len(got) != 1 || got[0].Sum.Value != 1 {
			t.Fatalf("%s: first run %+v", c.name, got)
		}
		got[0].Sum.Value = sentinel // visible only if the next Run is a memo hit
		got, _, _ = p.Run()
		if hit := got[0].Sum.Value == sentinel; hit != c.memo {
			t.Fatalf("%s: unchanged source, memo hit %v, want %v", c.name, hit, c.memo)
		}
		c.write()
		if got, _, _ = p.Run(); len(got) != 1 || got[0].Sum.Value != 2 {
			t.Fatalf("%s: after a write %+v, want the new sum 2", c.name, got)
		}
	}
}

// TestPreparedMemoPerQuery: two prepared queries on one engine keep their
// own memos. Evaluating one after a write moves the engine's index; the
// other must still see that write rather than its own stale answer.
func TestPreparedMemoPerQuery(t *testing.T) {
	sk := core.New(64, core.Unbiased, rand.New(rand.NewSource(4)))
	sk.Update("k=a|j=x")
	eng := NewEngine(sk)
	a := eng.Prepare(Query{GroupBy: []string{"k"}})
	b := eng.Prepare(Query{GroupBy: []string{"j"}})
	for _, p := range []*Prepared{a, b} {
		if got, _, _ := p.Run(); len(got) != 1 || got[0].Sum.Value != 1 {
			t.Fatalf("first run %+v", got)
		}
	}
	sk.Update("k=a|j=x")
	if got, _, _ := a.Run(); got[0].Sum.Value != 2 {
		t.Fatalf("a after a write: %+v", got)
	}
	if got, _, _ := b.Run(); got[0].Sum.Value != 2 {
		t.Fatalf("b after a write, evaluated after a: %+v (stale memo)", got)
	}
}

// TestKeyPairs: evaluator groups carry their key as pairs sorted by
// dimension, duplicate group-by dimensions collapsed; hand-built groups
// sort their Key map; the global group has none.
func TestKeyPairs(t *testing.T) {
	sk := core.New(64, core.Unbiased, rand.New(rand.NewSource(5)))
	sk.Update("b=2|a=1|c=3")
	got, _, _ := NewEngine(sk).Prepare(Query{GroupBy: []string{"c", "a", "c"}}).Run()
	want := []KeyPair{{"a", "1"}, {"c", "3"}}
	if len(got) != 1 || !reflect.DeepEqual(got[0].KeyPairs(), want) {
		t.Fatalf("prepared KeyPairs %+v, want %+v", got, want)
	}
	if kp := (Group{Key: map[string]string{"c": "3", "a": "1"}}).KeyPairs(); !reflect.DeepEqual(kp, want) {
		t.Fatalf("hand-built KeyPairs %+v, want %+v", kp, want)
	}
	if kp := (Group{}).KeyPairs(); kp != nil {
		t.Fatalf("global group KeyPairs %+v, want nil", kp)
	}
}
