// Package fnv1a is the 32-bit FNV-1a string hash the simulators derive
// their seeds and per-key draws from: corpus and pool seeds, dataset
// seeds, query latencies, probe answers and error pages.
package fnv1a

// Offset is the FNV-1a offset basis: the hash of the empty string.
const Offset uint32 = 2166136261

// String returns the FNV-1a hash of s.
func String(s string) uint32 { return Add(Offset, s) }

// Add continues hash h over s, so hashing the parts of a key in turn
// equals hashing their concatenation.
func Add(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
