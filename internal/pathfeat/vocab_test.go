package pathfeat

import (
	"maps"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"graphcache/internal/graph"
)

// seqKey returns a distinct Key for every i.
func seqKey(i int) Key {
	return Encode([]graph.Label{graph.Label(i >> 16), graph.Label(i), 7})
}

// countsOf returns Counts over seqKey(i) for i in [lo, hi).
func countsOf(lo, hi int) Counts {
	c := make(Counts, hi-lo)
	for i := lo; i < hi; i++ {
		c[seqKey(i)] = int32(1 + i%5)
	}
	return c
}

func TestVocabInternRoundTrip(t *testing.T) {
	vb := NewVocab()
	keys := []Key{
		Encode([]graph.Label{1}),
		Encode([]graph.Label{1, 2}),
		Encode([]graph.Label{2, 1}),
		Encode([]graph.Label{1, 2, 3, 4, 5}),
		Encode(nil),
	}
	ids := make([]uint32, len(keys))
	for i, k := range keys {
		ids[i] = vb.Intern(k)
		if again := vb.Intern(k); again != ids[i] {
			t.Errorf("re-intern of key %d: id %d != first id %d", i, again, ids[i])
		}
		got, ok := vb.KeyOf(ids[i])
		if !ok || got != k {
			t.Errorf("KeyOf(%d) = (%q, %v), want (%q, true)", ids[i], got, ok, k)
		}
	}
	if vb.Len() != len(keys) {
		t.Errorf("Len = %d, want %d", vb.Len(), len(keys))
	}
	if _, ok := vb.KeyOf(uint32(len(keys))); ok {
		t.Error("KeyOf past the end must report unknown")
	}
	if _, ok := vb.Lookup(Encode([]graph.Label{9, 9})); ok {
		t.Error("Lookup must not intern")
	}
}

// TestVectorOfMatchesCounts: VectorOf is a lossless change of
// representation — converting back through the vocabulary recovers the
// exact Counts, the vector is ID-sorted, and the vector hash equals the
// map hash.
func TestVectorOfMatchesCounts(t *testing.T) {
	vb := NewVocab()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(r, 2+r.Intn(7), 3, 0.3)
		c := SimplePaths(g, 4)
		vec := vb.VectorOf(c)
		if len(vec) != len(c) {
			t.Fatalf("trial %d: vector has %d features, counts %d", trial, len(vec), len(c))
		}
		for i := 1; i < len(vec); i++ {
			if vec[i-1].ID >= vec[i].ID {
				t.Fatalf("trial %d: vector not strictly ID-sorted at %d", trial, i)
			}
		}
		back := vb.CountsOf(vec)
		for k, n := range c {
			if back[k] != n {
				t.Fatalf("trial %d: round-trip lost %q: %d != %d", trial, k, back[k], n)
			}
		}
		if got, want := vb.HashVector(vec), Hash(c); got != want {
			t.Fatalf("trial %d: HashVector %d != Hash %d", trial, got, want)
		}
	}
}

// TestVectorOfAllocatesForNewFeaturesOnly pins O(new) interning: against
// a large vocabulary, a VectorOf call that meets a few unseen features
// must allocate in proportion to them, not copy the vocabulary (a copy of
// 50k features is several MB). It measures bytes allocated rather than
// time, so a busy machine cannot make it flaky.
func TestVectorOfAllocatesForNewFeaturesOnly(t *testing.T) {
	const (
		prefill = 50_000
		calls   = 50
		fresh   = 20
		bound   = 64 << 10 // bytes per call
	)
	vb := NewVocab()
	vb.VectorOf(countsOf(0, prefill))
	inputs := make([]Counts, calls)
	for i := range inputs {
		lo := prefill + i*fresh
		inputs[i] = countsOf(lo, lo+fresh)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range inputs {
		vb.VectorOf(c)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > bound {
		t.Fatalf("VectorOf with %d new features allocated %d B/call against a %d-feature vocabulary, want <= %d",
			fresh, perCall, prefill, bound)
	}
	if got, want := vb.Len(), prefill+calls*fresh; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

// TestVocabConcurrentIntern hammers one vocabulary from many goroutines
// interning overlapping key sets — under -race this is the interning
// soundness check. Every key must map to exactly one ID and every ID must
// round-trip to its key.
func TestVocabConcurrentIntern(t *testing.T) {
	const (
		workers = 8
		rounds  = 200
	)
	vb := NewVocab()
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = Encode([]graph.Label{graph.Label(i % 16), graph.Label(i / 16)})
	}
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			ids := make([]uint32, len(keys))
			for round := 0; round < rounds; round++ {
				i := r.Intn(len(keys))
				ids[i] = vb.Intern(keys[i])
				// Interleave reads with writes.
				vb.HashVector(Vector{{ID: ids[i], Count: 1}})
				if _, ok := vb.KeyOf(ids[i]); !ok {
					t.Errorf("worker %d: id %d vanished", w, ids[i])
					return
				}
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	for i, k := range keys {
		id, ok := vb.Lookup(k)
		if !ok {
			continue // never interned by any worker
		}
		back, _ := vb.KeyOf(id)
		if back != k {
			t.Errorf("key %d: id %d round-trips to %q", i, id, back)
		}
		for w := range got {
			if got[w] == nil {
				continue
			}
			if wid := got[w][i]; wid != 0 && wid != id {
				// A worker that interned key i must have seen the same id
				// (0 is ambiguous: unset or genuinely id 0 — skip it).
				t.Errorf("worker %d saw id %d for key %d, final id %d", w, wid, i, id)
			}
		}
	}
}

// TestVocabConcurrentVectorOf: goroutines intern overlapping sets of new
// features through VectorOf and immediately read back the vectors other
// goroutines just built — IDs that may have been assigned microseconds
// earlier, while still more features are being interned. Under -race this
// checks that readers of fresh IDs are synchronised with the writers; every
// vector must round-trip to its Counts and hash like them, and every key
// must end up with the one ID all workers saw.
func TestVocabConcurrentVectorOf(t *testing.T) {
	const (
		workers = 6
		rounds  = 150
		width   = 24 // features per vector
		step    = 8  // new keys entering the window per round
	)
	type built struct {
		counts Counts
		vec    Vector
	}
	vb := NewVocab()
	latest := make([]atomic.Pointer[built], workers)
	seen := make([]map[Key]uint32, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			seen[w] = map[Key]uint32{}
			for round := 0; round < rounds; round++ {
				lo := round*step + w*width/workers // overlaps the other workers' windows
				c := countsOf(lo, lo+width)
				vec := vb.VectorOf(c)
				for _, fc := range vec {
					k, _ := vb.KeyOf(fc.ID)
					seen[w][k] = fc.ID // a key interned twice would fail the final Lookup
				}
				latest[w].Store(&built{counts: c, vec: vec})
				other := latest[r.Intn(workers)].Load()
				if other == nil {
					continue
				}
				if got, want := vb.HashVector(other.vec), Hash(other.counts); got != want {
					t.Errorf("worker %d: HashVector %d != Hash %d", w, got, want)
					return
				}
				if got := vb.CountsOf(other.vec); !maps.Equal(got, other.counts) {
					t.Errorf("worker %d: CountsOf lost features: %v != %v", w, got, other.counts)
					return
				}
				for _, fc := range other.vec {
					k, ok := vb.KeyOf(fc.ID)
					if !ok || other.counts[k] != fc.Count {
						t.Errorf("worker %d: KeyOf(%d) = (%q, %v) does not round-trip", w, fc.ID, k, ok)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range seen {
		for k, id := range seen[w] {
			if final, ok := vb.Lookup(k); !ok || final != id {
				t.Errorf("worker %d saw id %d for %q, final (%d, %v)", w, id, k, final, ok)
			}
		}
	}
}

// FuzzVocabRoundTrip: interning any byte string (trimmed to an even
// length, the Key invariant) must round-trip Key → ID → Key and be
// idempotent. All execs share one vocabulary, so a key may collide with
// one interned by an earlier exec (the already-interned path) and IDs
// from earlier execs must stay put as the vocabulary grows.
func FuzzVocabRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 1, 0, 2, 255, 255})
	f.Add([]byte("the quick brown fox!"))
	vb := NewVocab()
	pinned := []Key{Encode([]graph.Label{1}), Encode([]graph.Label{1, 2})}
	for _, k := range pinned {
		vb.Intern(k)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		before := vb.Len()
		k := Key(raw[:len(raw)/2*2])
		id := vb.Intern(k)
		back, ok := vb.KeyOf(id)
		if !ok || back != k {
			t.Fatalf("KeyOf(Intern(%q)) = (%q, %v)", k, back, ok)
		}
		if again := vb.Intern(k); again != id {
			t.Fatalf("Intern(%q) not idempotent: %d then %d", k, id, again)
		}
		// A new key takes the next ID; a known one leaves Len alone.
		if grew := vb.Len() - before; grew > 1 || grew == 1 && int(id) != before {
			t.Fatalf("Intern(%q) = id %d took Len %d -> %d", k, id, before, vb.Len())
		}
		for want, pk := range pinned {
			if got, ok := vb.Lookup(pk); !ok || got != uint32(want) {
				t.Fatalf("pinned key %q moved to (%d, %v), want %d", pk, got, ok, want)
			}
		}
		if labels := Decode(k); Encode(labels) != k {
			t.Fatalf("Encode(Decode(%q)) = %q", k, Encode(labels))
		}
	})
}

var vectorSink Vector

// BenchmarkVocabVectorOf converts 60-feature vectors against an
// 80k-feature vocabulary, the size an unsaturated query stream reaches.
// "new23": each vector carries 23 features never seen before, as a cold
// query does. "known": every feature is interned already, as on a hot
// query.
func BenchmarkVocabVectorOf(b *testing.B) {
	const (
		prefill = 80_000
		width   = 60
		fresh   = 23
	)
	b.Run("new23", func(b *testing.B) {
		vb := NewVocab()
		vb.VectorOf(countsOf(0, prefill))
		r := rand.New(rand.NewSource(1))
		next := prefill
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer() // building the input is not part of the measurement
			lo := r.Intn(prefill - width)
			c := countsOf(lo, lo+width-fresh)
			for ; len(c) < width; next++ {
				c[seqKey(next)] = 1
			}
			b.StartTimer()
			vectorSink = vb.VectorOf(c)
		}
	})
	b.Run("known", func(b *testing.B) {
		vb := NewVocab()
		vb.VectorOf(countsOf(0, prefill))
		c := countsOf(prefill/2, prefill/2+width)
		for b.Loop() {
			vectorSink = vb.VectorOf(c)
		}
	})
}
