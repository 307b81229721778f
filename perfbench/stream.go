package main

import (
	"fmt"
	"math/rand"
	"strings"

	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/server"
	"graphcache/internal/workload"
)

// querySizes are the query sizes in edges, the paper's list (§7.2).
var querySizes = []int{4, 8, 12, 16, 20}

// OpKind is what one operation of a stream sends.
type OpKind int

const (
	// OpQuery is one POST /query.
	OpQuery OpKind = iota
	// OpBatch is one POST /querybatch.
	OpBatch
	// OpMutate is one POST /mutate.
	OpMutate
)

// Op is one operation of a stream.
type Op struct {
	Kind    OpKind
	Queries []int // indices into Stream.Queries: one for OpQuery, the batch for OpBatch
	Mut     *Mutation
}

// Mutation is one dataset mutation together with its effect, which the
// generator knows because it tracks the live dataset as it goes.
type Mutation struct {
	Op    dataset.Op
	ID    int32        // the graph the mutation adds, removes or edits
	After *graph.Graph // the graph's content after the mutation (nil on remove)
}

// Request returns the mutation as the body of a POST /mutate.
func (m *Mutation) Request() server.MutateRequest {
	req := server.MutateRequest{Op: m.Op.String()}
	if m.Op != dataset.OpAdd {
		req.IDs = []int32{m.ID}
	}
	if m.After != nil {
		req.Graphs = graphText(m.After)
	}
	return req
}

// Core returns the mutation as a dataset.Mutation over fresh graph
// copies, so that appliers may renumber them freely.
func (m *Mutation) Core() dataset.Mutation {
	mut := dataset.Mutation{Op: m.Op}
	if m.Op != dataset.OpAdd {
		mut.IDs = []int32{m.ID}
	}
	if m.After != nil {
		mut.Graphs = []*graph.Graph{m.After.Clone()}
	}
	return mut
}

// Stream is a workload's whole operation sequence. Queries holds each
// distinct query graph once; operations refer to it by index, so
// repeated queries are recognisable without comparing graphs.
type Stream struct {
	Queries []*graph.Graph
	Ops     []Op
}

// graphText encodes one graph in the t/v/e text format.
func graphText(g *graph.Graph) string {
	var b strings.Builder
	if err := graph.Write(&b, []*graph.Graph{g}); err != nil {
		panic(err) // writes to a strings.Builder do not fail
	}
	return b.String()
}

// queryStream draws n Type A queries of the given category ("ZZ" or
// "UU") over ds and interns them, returning the distinct graphs and
// the stream as indices into them.
func queryStream(ds *dataset.Dataset, category string, n int, seed int64) ([]*graph.Graph, []int) {
	cfg, err := workload.TypeACategory(category, 0, querySizes, n)
	if err != nil {
		panic(err) // categories are constants of this package
	}
	var (
		distinct []*graph.Graph
		seen     = map[string]int{}
		order    = make([]int, 0, n)
	)
	for _, q := range workload.TypeA(ds, cfg, seed) {
		key := graphText(q.Graph)
		i, ok := seen[key]
		if !ok {
			i = len(distinct)
			seen[key] = i
			distinct = append(distinct, q.Graph)
		}
		order = append(order, i)
	}
	return distinct, order
}

// SingleStream is n single queries drawn from category.
func SingleStream(ds *dataset.Dataset, category string, n int, seed int64) *Stream {
	qs, order := queryStream(ds, category, n, seed)
	s := &Stream{Queries: qs, Ops: make([]Op, len(order))}
	for i, q := range order {
		s.Ops[i] = Op{Kind: OpQuery, Queries: []int{q}}
	}
	return s
}

// BatchStream is nBatches batches of size queries drawn from category.
func BatchStream(ds *dataset.Dataset, category string, nBatches, size int, seed int64) *Stream {
	qs, order := queryStream(ds, category, nBatches*size, seed)
	s := &Stream{Queries: qs, Ops: make([]Op, nBatches)}
	for i := range s.Ops {
		s.Ops[i] = Op{Kind: OpBatch, Queries: order[i*size : (i+1)*size]}
	}
	return s
}

// MixedStream is SingleStream's read sequence with every every-th
// operation replaced by a mutation, n operations in all. Mutations
// cycle add → remove → edit, so the dataset's live size stays level.
func MixedStream(ds *dataset.Dataset, category string, n, every int, seed int64) *Stream {
	reads := SingleStream(ds, category, n, seed)
	mg := newMutGen(ds, n/every+1, seed)
	s := &Stream{Queries: reads.Queries}
	next := 0
	for i := 0; i < n; i++ {
		if (i+1)%every == 0 {
			s.Ops = append(s.Ops, Op{Kind: OpMutate, Mut: mg.next()})
			continue
		}
		s.Ops = append(s.Ops, reads.Ops[next])
		next++
	}
	return s
}

// mutGen generates mutations that are valid in sequence: it tracks the
// live IDs and each graph's current content, so a remove or edit always
// names a live graph and an edit always deletes a present edge and
// inserts an absent one.
type mutGen struct {
	r     *rand.Rand
	cur   []*graph.Graph // content by ID; nil once removed
	live  []int32        // live IDs, in no particular order
	pos   map[int32]int  // index of each live ID in live
	fresh []*graph.Graph // molecules the adds bring in
	n     int            // mutations generated so far
}

func newMutGen(ds *dataset.Dataset, maxMutations int, seed int64) *mutGen {
	mg := &mutGen{
		r:   rand.New(rand.NewSource(seed ^ 0x5eed)),
		cur: append([]*graph.Graph(nil), ds.Graphs()...),
		pos: map[int32]int{},
	}
	for id, g := range mg.cur {
		if g != nil {
			mg.pos[int32(id)] = len(mg.live)
			mg.live = append(mg.live, int32(id))
		}
	}
	cfg := gen.DefaultAIDS()
	cfg.NumGraphs = maxMutations/3 + 1
	mg.fresh = cfg.Generate(seed ^ 0xadd).Graphs()
	return mg
}

func (mg *mutGen) next() *Mutation {
	defer func() { mg.n++ }()
	switch mg.n % 3 {
	case 0:
		return mg.add()
	case 1:
		return mg.remove()
	default:
		return mg.edit()
	}
}

func (mg *mutGen) add() *Mutation {
	id := int32(len(mg.cur))
	g := mg.fresh[(mg.n/3)%len(mg.fresh)].Clone()
	g.SetID(id)
	mg.cur = append(mg.cur, g)
	mg.pos[id] = len(mg.live)
	mg.live = append(mg.live, id)
	return &Mutation{Op: dataset.OpAdd, ID: id, After: g}
}

func (mg *mutGen) remove() *Mutation {
	id := mg.live[mg.r.Intn(len(mg.live))]
	i := mg.pos[id]
	last := mg.live[len(mg.live)-1]
	mg.live[i] = last
	mg.pos[last] = i
	mg.live = mg.live[:len(mg.live)-1]
	delete(mg.pos, id)
	mg.cur[id] = nil
	return &Mutation{Op: dataset.OpRemove, ID: id}
}

// edit moves one edge of a live graph: it deletes a present edge and
// inserts an absent one, so the edge count stays level. Graphs too
// small or too dense to move an edge are skipped in favour of another.
func (mg *mutGen) edit() *Mutation {
	for {
		id := mg.live[mg.r.Intn(len(mg.live))]
		g := mg.cur[id]
		edits, ok := mg.moveEdge(g)
		if !ok {
			continue
		}
		ng, err := dataset.ApplyEdgeEdits(g, edits)
		if err != nil {
			panic(fmt.Sprintf("perfbench: generated edit invalid on graph %d: %v", id, err)) // moveEdge checked both edges
		}
		mg.cur[id] = ng
		return &Mutation{Op: dataset.OpEdit, ID: id, After: ng}
	}
}

func (mg *mutGen) moveEdge(g *graph.Graph) ([]dataset.EdgeEdit, bool) {
	n := int32(g.NumVertices())
	if g.NumEdges() == 0 || int(n)*(int(n)-1)/2 <= g.NumEdges() {
		return nil, false
	}
	var edges [][2]int32
	g.Edges(func(u, v int32) { edges = append(edges, [2]int32{u, v}) })
	del := edges[mg.r.Intn(len(edges))]
	for {
		u, v := mg.r.Int31n(n), mg.r.Int31n(n)
		if u != v && !g.HasEdge(u, v) {
			return []dataset.EdgeEdit{{U: del[0], V: del[1], Del: true}, {U: u, V: v}}, true
		}
	}
}
