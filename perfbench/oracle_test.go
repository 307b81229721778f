package main

import (
	"testing"

	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/method"
)

// TestOracleCatchesCorruptAnswer feeds the oracle the true answers of a
// stream, then the same answers with one ID dropped or added.
func TestOracleCatchesCorruptAnswer(t *testing.T) {
	gs := smallDataset()
	s := SingleStream(datasetOf(gs), "ZZ", 40, 3)
	m := ggsx.New(datasetOf(gs), ggsx.Options{})
	truth := make([][]int32, len(s.Ops))
	for i, op := range s.Ops {
		truth[i] = method.Answer(m, s.Queries[op.Queries[0]])
	}
	o := NewOracle(gs, s)
	for i, op := range s.Ops {
		if err := o.Check(i, op.Queries[0], truth[i], 0, 0); err != nil {
			t.Fatalf("true answer rejected: %v", err)
		}
	}
	for i, op := range s.Ops {
		ans := truth[i]
		var bad []int32
		if len(ans) > 0 {
			bad = ans[1:] // a missing answer
		} else {
			bad = []int32{0} // a false positive
		}
		if err := NewOracle(gs, s).Check(i, op.Queries[0], bad, 0, 0); err == nil {
			t.Fatalf("op %d: corrupted answer %v (true %v) accepted", i, bad, ans)
		}
	}
}

// TestOracleEpochWindow checks that a read racing a mutation is judged
// against every epoch in its window and only those: after a removal, the
// pre-removal answer is right only while the removal might not yet have
// been applied.
func TestOracleEpochWindow(t *testing.T) {
	gs := smallDataset()
	m := ggsx.New(datasetOf(gs), ggsx.Options{})
	var q *graph.Graph
	var before []int32
	for _, cand := range SingleStream(datasetOf(gs), "UU", 50, 4).Queries {
		if before = method.Answer(m, cand); len(before) > 0 {
			q = cand
			break
		}
	}
	if q == nil {
		t.Fatal("no query with a non-empty answer")
	}
	removed := before[0]
	s := &Stream{Queries: []*graph.Graph{q}, Ops: []Op{
		{Kind: OpMutate, Mut: &Mutation{Op: dataset.OpRemove, ID: removed}},
		{Kind: OpQuery, Queries: []int{0}},
	}}
	after := before[1:]
	for _, c := range []struct {
		got    []int32
		lo, hi int
		ok     bool
	}{
		{after, 1, 1, true},
		{after, 0, 1, true},
		{before, 0, 1, true},  // the removal may not have reached the backend yet
		{before, 1, 1, false}, // the removal was acknowledged before the read was sent
	} {
		err := NewOracle(gs, s).Check(1, 0, c.got, c.lo, c.hi)
		if (err == nil) != c.ok {
			t.Errorf("answer %v in window [%d,%d]: err = %v, want ok = %v", c.got, c.lo, c.hi, err, c.ok)
		}
	}
}
