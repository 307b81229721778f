package pathfeat

import (
	"cmp"
	"slices"
	"sync"
)

// FeatCount is one entry of a feature vector: a dense feature ID and its
// occurrence count.
type FeatCount struct {
	ID    uint32
	Count int32
}

// Vector is the columnar representation of a feature-count set: FeatCounts
// sorted by ascending feature ID. It carries the same information as a
// Counts map relative to the Vocab that interned it, but probes over it
// are integer comparisons on a dense array — no string hashing, no map
// iteration. Vectors are immutable once built and safe to share.
type Vector []FeatCount

// Vocab interns path-feature Keys to dense uint32 feature IDs. IDs are
// assigned in first-intern order, start at 0 and are never reused, so they
// index directly into columnar structures. A Vocab is safe for concurrent
// use. Known features resolve under a read lock; new ones are appended
// under the write lock, at a cost proportional to the new features only —
// the map and key columns are never copied. The vocabulary is never
// pruned and grows with every distinct feature it is given: on a stream
// of unrelated queries it keeps growing rather than settling after a
// warm-up.
type Vocab struct {
	mu      sync.RWMutex
	ids     map[Key]uint32
	keys    []Key
	keyHash []uint64 // keyBytesHash of each key, by ID
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{ids: map[Key]uint32{}}
}

// Len returns the number of interned features.
func (v *Vocab) Len() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.keys)
}

// Intern returns the feature ID of k, assigning the next free ID on first
// sight.
func (v *Vocab) Intern(k Key) uint32 {
	if id, ok := v.Lookup(k); ok {
		return id
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.internLocked(k)
}

// internLocked returns the ID of k, assigning the next one if k is new.
// The caller holds v.mu for writing; k may have been interned by another
// writer since the caller's read-locked lookup missed it.
func (v *Vocab) internLocked(k Key) uint32 {
	if id, ok := v.ids[k]; ok {
		return id
	}
	id := uint32(len(v.keys))
	v.ids[k] = id
	v.keys = append(v.keys, k)
	v.keyHash = append(v.keyHash, keyBytesHash(k))
	return id
}

// Lookup returns the ID of k without interning, and whether it is known.
func (v *Vocab) Lookup(k Key) (uint32, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.ids[k]
	return id, ok
}

// KeyOf returns the Key interned under id, and whether id is assigned.
func (v *Vocab) KeyOf(id uint32) (Key, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if int(id) >= len(v.keys) {
		return "", false
	}
	return v.keys[id], true
}

// VectorOf interns every feature of c and returns the equivalent Vector,
// sorted by ascending feature ID. Known features resolve in one read-locked
// pass; only the misses take the write lock.
func (v *Vocab) VectorOf(c Counts) Vector {
	if len(c) == 0 {
		return nil
	}
	vec := make(Vector, 0, len(c))
	var missing []Key
	v.mu.RLock()
	for k, n := range c {
		if id, ok := v.ids[k]; ok {
			vec = append(vec, FeatCount{ID: id, Count: n})
		} else {
			missing = append(missing, k)
		}
	}
	v.mu.RUnlock()
	if len(missing) > 0 {
		v.mu.Lock()
		for _, k := range missing {
			vec = append(vec, FeatCount{ID: v.internLocked(k), Count: c[k]})
		}
		v.mu.Unlock()
	}
	slices.SortFunc(vec, func(a, b FeatCount) int { return cmp.Compare(a.ID, b.ID) })
	return vec
}

// CountsOf converts a Vector built against this vocabulary back to the
// equivalent Counts map (for tests and debugging).
func (v *Vocab) CountsOf(vec Vector) Counts {
	c := make(Counts, len(vec))
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, fc := range vec {
		c[v.keys[fc.ID]] = fc.Count
	}
	return c
}

// HashVector returns the same order-independent hash Hash computes over
// the equivalent Counts map — per-feature key hashes are precomputed at
// intern time, so hashing a vector touches no key bytes.
func (v *Vocab) HashVector(vec Vector) uint64 {
	var h uint64
	v.mu.RLock()
	defer v.mu.RUnlock()
	for _, fc := range vec {
		h ^= mixPair(v.keyHash[fc.ID], fc.Count)
	}
	return h
}
