package labelidx

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// BenchmarkProgramRun times the columnar scan itself: one compiled filter
// plus group-by over the 4096-bin sketch BenchmarkPreparedQuery queries
// (2¹⁷ rows of country/device/ad labels, device ∈ {d0, d1}, grouped by
// country). A prepared query on an unchanged sketch answers from its
// memo instead, so this is the cost a query pays once per write.
func BenchmarkProgramRun(b *testing.B) {
	sk := core.New(4096, core.Unbiased, rand.New(rand.NewSource(6)))
	for i := 0; i < 1<<17; i++ {
		sk.Update(fmt.Sprintf("country=c%d|device=d%d|ad=a%d", i%20, i%3, i%997))
	}
	p, ok := New(sk.Bins()).Compile([]Filter{{Dim: "device", In: []string{"d0", "d1"}}}, []string{"country"})
	if !ok {
		b.Fatal("group key does not pack")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.Run()) == 0 {
			b.Fatal("no groups")
		}
	}
}
