package uss_test

import (
	"fmt"
	"testing"

	uss "repro"
)

func TestRunQueryPublic(t *testing.T) {
	sk := uss.New(256, uss.WithSeed(2))
	for i := 0; i < 3000; i++ {
		country := []string{"us", "de", "jp"}[i%3]
		device := []string{"ios", "android"}[i%2]
		sk.Update(fmt.Sprintf("country=%s|device=%s", country, device))
	}
	groups, skipped, err := uss.RunQuery(sk, uss.QuerySpec{
		Where:   []uss.QueryFilter{uss.WhereEq("device", "ios")},
		GroupBy: []string{"country"},
	})
	if err != nil || skipped != 0 {
		t.Fatalf("err=%v skipped=%d", err, skipped)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	var total float64
	for _, g := range groups {
		total += g.Sum.Value
	}
	if total != 1500 { // half the rows are ios
		t.Errorf("ios total = %v, want 1500", total)
	}
	lo, hi := groups[0].Sum.ConfidenceInterval(0.95)
	if lo > groups[0].Sum.Value || hi < groups[0].Sum.Value {
		t.Error("CI does not bracket the estimate")
	}
}

func TestRunQueryWeightedPublic(t *testing.T) {
	sk := uss.NewWeighted(64, uss.WithSeed(3))
	sk.Update("region=eu|tier=gold", 10)
	sk.Update("region=eu|tier=basic", 4)
	sk.Update("region=us|tier=gold", 7)
	groups, _, err := uss.RunQueryWeighted(sk, uss.QuerySpec{GroupBy: []string{"region"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0].Sum.Value != 14 || groups[1].Sum.Value != 7 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestGuaranteedFrequentPublic(t *testing.T) {
	sk := uss.New(16, uss.WithSeed(4))
	for i := 0; i < 5000; i++ {
		sk.Update("dominant")
	}
	for i := 0; i < 5000; i++ {
		sk.Update(fmt.Sprintf("tail-%d", i%2000))
	}
	g := sk.GuaranteedFrequent(0.3)
	if len(g) != 1 || g[0].Item != "dominant" {
		t.Fatalf("GuaranteedFrequent = %v", g)
	}
	// Guaranteed set is a subset of FrequentItems at the same threshold.
	fi := map[string]bool{}
	for _, b := range sk.FrequentItems(0.3) {
		fi[b.Item] = true
	}
	for _, b := range g {
		if !fi[b.Item] {
			t.Errorf("guaranteed item %s missing from FrequentItems", b.Item)
		}
	}
	if got := sk.GuaranteedFrequent(0.99); len(got) != 0 {
		t.Errorf("GuaranteedFrequent(0.99) = %v", got)
	}
	empty := uss.New(4, uss.WithSeed(1))
	if got := empty.GuaranteedFrequent(0.1); got != nil {
		t.Errorf("empty sketch → %v", got)
	}
}

// TestPreparedQuerySeesWrites: prepared queries answer a repeat on an
// unchanged sketch from their last evaluation, so every kind must show a
// write in the next run — a unit or weighted Version move, and any shard
// move of a sharded sketch.
func TestPreparedQuerySeesWrites(t *testing.T) {
	spec := uss.QuerySpec{GroupBy: []string{"k"}}
	unit := uss.New(64, uss.WithSeed(1))
	weighted := uss.NewWeighted(64, uss.WithSeed(2))
	sharded := uss.NewSharded(4, 64, uss.WithSeed(3))
	for _, c := range []struct {
		name  string
		p     *uss.PreparedQuery
		write func(item string)
	}{
		{"unit", unit.QueryEngine().Prepare(spec), unit.Update},
		{"weighted", weighted.QueryEngine().Prepare(spec), func(item string) { weighted.Update(item, 1) }},
		{"sharded", sharded.QueryEngine().Prepare(spec), sharded.Update},
	} {
		for round := 1; round <= 3; round++ {
			// Each round lands on a different label, so on the sharded
			// sketch the moving shard changes from round to round.
			c.write(fmt.Sprintf("k=%d", round))
			for rep := 0; rep < 2; rep++ {
				groups, _, err := c.p.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(groups) != round {
					t.Fatalf("%s round %d rep %d: %d groups, want %d", c.name, round, rep, len(groups), round)
				}
			}
		}
	}
}
