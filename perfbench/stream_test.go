package main

import (
	"testing"

	"graphcache/internal/core"
	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
)

func smallDataset() []*graph.Graph {
	return gen.DefaultAIDS().Scaled(0.005, 1).Generate(7).Graphs() // 200 graphs
}

// TestStreamReplays replays a generated mixed stream in-process through
// Cache.ApplyMutation: every generated mutation must be valid in
// sequence, and the live dataset size must stay level.
func TestStreamReplays(t *testing.T) {
	gs := smallDataset()
	for _, seed := range []int64{1, 2, 3} {
		s := MixedStream(datasetOf(gs), "ZZ", 1200, 4, seed)
		ds := dataset.New(cloneAll(gs))
		c := core.New(ggsx.New(ds, ggsx.Options{}), cacheOptions())
		minLive, maxLive := ds.Live(), ds.Live()
		mutations := 0
		for i, op := range s.Ops {
			switch op.Kind {
			case OpQuery:
				c.Query(s.Queries[op.Queries[0]])
			case OpMutate:
				mutations++
				res, err := c.ApplyMutation(op.Mut.Core())
				if err != nil {
					t.Fatalf("seed %d: op %d (%s of graph %d): %v", seed, i, op.Mut.Op, op.Mut.ID, err)
				}
				if op.Mut.Op == dataset.OpAdd && (len(res.AddedIDs) != 1 || res.AddedIDs[0] != op.Mut.ID) {
					t.Fatalf("seed %d: op %d added %v, generator expected id %d", seed, i, res.AddedIDs, op.Mut.ID)
				}
				minLive, maxLive = min(minLive, ds.Live()), max(maxLive, ds.Live())
			}
		}
		if mutations != 300 {
			t.Errorf("seed %d: %d mutations, want 300", seed, mutations)
		}
		if maxLive-minLive > 1 {
			t.Errorf("seed %d: live size ranged over [%d, %d], want level", seed, minLive, maxLive)
		}
		c.Flush()
	}
}

// TestStreamDeterministic checks that a seed fixes the stream.
func TestStreamDeterministic(t *testing.T) {
	gs := smallDataset()
	a := MixedStream(datasetOf(gs), "ZZ", 300, 10, 5)
	b := MixedStream(datasetOf(gs), "ZZ", 300, 10, 5)
	if len(a.Ops) != len(b.Ops) || len(a.Queries) != len(b.Queries) {
		t.Fatalf("stream shapes differ: %d/%d ops, %d/%d queries", len(a.Ops), len(b.Ops), len(a.Queries), len(b.Queries))
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Kind != y.Kind {
			t.Fatalf("op %d: kinds differ", i)
		}
		if x.Kind == OpMutate {
			if x.Mut.Op != y.Mut.Op || x.Mut.ID != y.Mut.ID || (x.Mut.After == nil) != (y.Mut.After == nil) ||
				(x.Mut.After != nil && graphText(x.Mut.After) != graphText(y.Mut.After)) {
				t.Fatalf("op %d: mutations differ", i)
			}
			continue
		}
		if graphText(a.Queries[x.Queries[0]]) != graphText(b.Queries[y.Queries[0]]) {
			t.Fatalf("op %d: queries differ", i)
		}
	}
}
