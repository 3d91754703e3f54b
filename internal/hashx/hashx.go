// Package hashx provides allocation-free string hashing for the ingest hot
// paths. The standard library's hash/fnv returns a heap-allocated
// hash.Hash32/64 per call site, which costs one allocation per row when
// used the obvious way (h := fnv.New32a(); h.Write(...)); these functions
// compute the identical FNV-1a digests as constant-rolled loops over the
// string bytes, so call sites keep their exact hash values (and therefore
// shard routing, sampling order and test expectations) while dropping the
// per-row allocation.
package hashx

const (
	offset32 uint32 = 2166136261
	prime32  uint32 = 16777619
	offset64 uint64 = 14695981039346656037
	prime64  uint64 = 1099511628211
)

// Sum32a returns the 32-bit FNV-1a digest of s, identical to writing s into
// hash/fnv.New32a.
func Sum32a(s string) uint32 {
	h := offset32
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// Sum64a returns the 64-bit FNV-1a digest of s, identical to writing s into
// hash/fnv.New64a.
func Sum64a(s string) uint64 {
	h := offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Sum64aBytes returns the 64-bit FNV-1a digest of b, identical to
// Sum64a(string(b)) without the conversion.
func Sum64aBytes(b []byte) uint64 {
	h := offset64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
