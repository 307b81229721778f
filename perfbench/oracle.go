package main

import (
	"fmt"
	"slices"

	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
)

// Oracle checks served answers against method.Answer over a private
// copy of the dataset. It walks the stream in order, applying each
// mutation to its copy, so every read is answered at the epoch its
// stream position implies. A served read may legitimately reflect any
// epoch that was live between its send and its receipt (a mutation
// acknowledged before the send, up to one sent before the receipt);
// answers at the neighbouring epochs are derived from the one computed
// by re-testing just the graphs the intervening mutations touched.
type Oracle struct {
	s     *Stream
	ds    *dataset.Dataset
	m     *ggsx.Index
	base  []*graph.Graph
	muts  []*Mutation // stream order; epoch k is the state after muts[k-1]
	epoch int         // mutations applied to ds so far
	next  int         // next stream op to walk past
	memo  map[[2]int][]int32
}

// NewOracle builds an oracle over graphs, the dataset the fleet loaded.
func NewOracle(graphs []*graph.Graph, s *Stream) *Oracle {
	o := &Oracle{s: s, memo: map[[2]int][]int32{}}
	for _, g := range graphs {
		o.base = append(o.base, g.Clone())
	}
	o.ds = dataset.New(append([]*graph.Graph(nil), o.base...))
	o.m = ggsx.New(o.ds, ggsx.Options{})
	for _, op := range s.Ops {
		if op.Kind == OpMutate {
			o.muts = append(o.muts, op.Mut)
		}
	}
	return o
}

// Check verifies the answer got to query qi of stream op opIdx, which
// may reflect any epoch in [lo, hi]. Ops must be checked in ascending
// stream order.
func (o *Oracle) Check(opIdx, qi int, got []int32, lo, hi int) error {
	if opIdx < o.next-1 {
		return fmt.Errorf("oracle: op %d checked after op %d", opIdx, o.next-1)
	}
	for ; o.next <= opIdx; o.next++ {
		if op := o.s.Ops[o.next]; op.Kind == OpMutate {
			applyMutation(o.ds, o.m, op.Mut.Core())
			o.epoch++
		}
	}
	q := o.s.Queries[qi]
	key := [2]int{qi, o.epoch}
	want, ok := o.memo[key]
	if !ok {
		want = method.Answer(o.m, q)
		o.memo[key] = want
	}
	if slices.Equal(got, want) {
		return nil
	}
	for e := lo; e <= hi; e++ {
		if e != o.epoch && slices.Equal(got, o.answerAt(q, want, e)) {
			return nil
		}
	}
	return fmt.Errorf("wrong answer to op %d (query %d, %d edges): got %d ids %v, want %d ids %v (epoch %d, live window [%d,%d])",
		opIdx, qi, q.NumEdges(), len(got), clip(got), len(want), clip(want), o.epoch, lo, hi)
}

// answerAt derives the answer at epoch e from want, the answer at the
// oracle's current epoch: only graphs that the mutations between the
// two epochs touched can differ, and each is re-tested directly.
func (o *Oracle) answerAt(q *graph.Graph, want []int32, e int) []int32 {
	from, to := min(e, o.epoch), max(e, o.epoch)
	if from < 0 || to > len(o.muts) {
		return nil
	}
	ans := map[int32]bool{}
	for _, id := range want {
		ans[id] = true
	}
	for _, m := range o.muts[from:to] {
		delete(ans, m.ID)
		if g := o.graphAt(m.ID, e); g != nil && iso.Contains(iso.VF2{}, q, g) {
			ans[m.ID] = true
		}
	}
	out := make([]int32, 0, len(ans))
	for id := range ans {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// graphAt returns graph id's content at epoch e (nil if not live).
func (o *Oracle) graphAt(id int32, e int) *graph.Graph {
	for k := e; k > 0; k-- {
		if m := o.muts[k-1]; m.ID == id {
			return m.After
		}
	}
	if int(id) < len(o.base) {
		return o.base[id]
	}
	return nil
}

// applyMutation advances ds and its method index by one mutation, the
// way the cache does for the method it wraps.
func applyMutation(ds *dataset.Dataset, m method.DynamicMethod, mut dataset.Mutation) {
	switch mut.Op {
	case dataset.OpAdd:
		ids := ds.AddGraphs(mut.Graphs)
		added := make([]*graph.Graph, len(ids))
		for i, id := range ids {
			added[i] = ds.Graph(id)
		}
		m.ApplyDatasetMutation(added, nil, nil)
	case dataset.OpRemove:
		m.ApplyDatasetMutation(nil, nil, ds.RemoveGraphs(mut.IDs))
	case dataset.OpEdit:
		ng, err := ds.Replace(mut.IDs[0], mut.Graphs[0])
		if err != nil {
			panic(fmt.Sprintf("perfbench: stream edit of dead graph %d: %v", mut.IDs[0], err)) // the generator tracks liveness
		}
		m.ApplyDatasetMutation(nil, []*graph.Graph{ng}, nil)
	}
}

// clip shortens an ID list for an error message.
func clip(ids []int32) []int32 {
	if len(ids) > 12 {
		return ids[:12]
	}
	return ids
}
