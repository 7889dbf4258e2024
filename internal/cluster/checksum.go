// Payload checksums for the simulated data plane. The engines checksum every
// payload they hand across a simulated machine boundary — map outputs entering
// the shuffle, reduce results, cached RDD partitions, broadcast blocks — and
// re-verify the digest at consume time, so injected corruption (FaultPlan
// CorruptionRate) is detected and converted into a re-execution instead of
// silently poisoning the model.
//
// The digest covers the *accounting* identity of a payload: the modeled wire
// sizes of its entries plus the producing task/attempt coordinates. That is
// the right granularity for the simulation layer (the real float data is
// never corrupted in-process — corruption is charged, like every other fault,
// so models stay bit-identical), and it keeps the steady-state emit/commit
// paths allocation-free.
package cluster

import "errors"

// ErrCorruptPayload is the typed error surfaced when a payload fails
// checksum verification at consume time. The engines convert a bounded
// number of detected corruptions into re-executions of the producing
// attempt; an unrecoverable payload (every re-fetch corrupted, or a
// committed payload whose entry sizes or count changed before it was
// consumed) unwraps to this sentinel so callers can match it with errors.Is.
// A value changed in place after commit is not detected: the digest covers
// sizes, not value bits.
var ErrCorruptPayload = errors.New("cluster: payload failed checksum verification")

// checksumOffset/checksumPrime are the FNV-64a parameters, shared with
// FaultPlan.draw.
const (
	checksumOffset = 14695981039346656037
	checksumPrime  = 1099511628211
)

// ChecksumEntry hashes one payload entry (its modeled key and value wire
// sizes) into a 64-bit word, finished with a splitmix64-style avalanche so
// near-identical entries land far apart.
func ChecksumEntry(keyBytes, valueBytes int64) uint64 {
	h := uint64(checksumOffset)
	for i := 0; i < 8; i++ {
		h ^= (uint64(keyBytes) >> (8 * i)) & 0xFF
		h *= checksumPrime
	}
	for i := 0; i < 8; i++ {
		h ^= (uint64(valueBytes) >> (8 * i)) & 0xFF
		h *= checksumPrime
	}
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// PayloadDigest accumulates entry hashes into an order-independent payload
// digest. Entries are combined by wrapping addition — not XOR, which would
// let duplicate entries cancel — so the digest is identical no matter what
// order a map-iteration visits the entries in, which is what makes the
// verification deterministic under Go's randomized map order. The zero value
// is ready to use.
type PayloadDigest struct {
	sum uint64
	n   int64
}

// Add folds one entry into the digest.
func (d *PayloadDigest) Add(keyBytes, valueBytes int64) {
	d.sum += ChecksumEntry(keyBytes, valueBytes)
	d.n++
}

// Sum returns the digest over everything added so far, bound to the entry
// count so an empty payload and a dropped payload are distinguishable.
func (d *PayloadDigest) Sum() uint64 {
	h := d.sum
	for i := 0; i < 8; i++ {
		h ^= (uint64(d.n) >> (8 * i)) & 0xFF
		h *= checksumPrime
	}
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}
