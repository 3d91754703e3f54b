package hashx

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// The whole point of this package is bit-for-bit agreement with hash/fnv —
// shard routing and sampling order across the repo depend on it.

func TestMatchesStdlib(t *testing.T) {
	cases := []string{"", "a", "ab", "item-123", "user-\x00\xff", "日本語",
		string(make([]byte, 1024))}
	for i := 0; i < 100; i++ {
		cases = append(cases, fmt.Sprintf("key-%d-%d", i, i*i))
	}
	for _, s := range cases {
		h32 := fnv.New32a()
		h32.Write([]byte(s))
		if got, want := Sum32a(s), h32.Sum32(); got != want {
			t.Errorf("Sum32a(%q) = %#x, fnv says %#x", s, got, want)
		}
		h64 := fnv.New64a()
		h64.Write([]byte(s))
		if got, want := Sum64a(s), h64.Sum64(); got != want {
			t.Errorf("Sum64a(%q) = %#x, fnv says %#x", s, got, want)
		}
		if got, want := Sum64aBytes([]byte(s)), h64.Sum64(); got != want {
			t.Errorf("Sum64aBytes(%q) = %#x, fnv says %#x", s, got, want)
		}
	}
}

func TestZeroAlloc(t *testing.T) {
	s := "some-moderately-long-item-label"
	if avg := testing.AllocsPerRun(100, func() {
		_ = Sum32a(s)
		_ = Sum64a(s)
	}); avg != 0 {
		t.Errorf("hashing allocates %v/run, want 0", avg)
	}
}

func BenchmarkSum32a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Sum32a("item-1234567890")
	}
}

func BenchmarkFnvNew32a(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := fnv.New32a()
		h.Write([]byte("item-1234567890"))
		_ = h.Sum32()
	}
}
