package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/iso"
	"graphcache/internal/method"
	"graphcache/internal/pathfeat"
)

// Per-query outcomes of special-case resolution.
const (
	stateNormal = iota // pruned and verified
	stateExact         // answered by an isomorphic cached query
	stateEmpty         // proved empty by a cached query with no answer
)

// batchQuery is one query's state as it moves through the pipeline.
type batchQuery struct {
	// Method M's candidate set and filter time, written by the filter
	// goroutine; nothing touches them again before joining it.
	csM  []int32
	mDur time.Duration

	// Interned feature vector and its shard-routing hash.
	vec  pathfeat.Vector
	hash uint64

	// GC stage: probe candidates (checks[:nSub] potential containers,
	// the rest potential containees), their start in the batch's
	// flattened confirmation list, and the confirmed relations.
	checks                 []*entry
	nSub                   int
	gcOff                  int
	containers, containees []*entry

	state int

	// Pruner output, the start of cs in the batch's flattened
	// verification list, and the final answer.
	direct, cs []int32
	vOff       int
	answer     []int32

	saved float64 // cost-model credit of the matched cached entries
}

// QueryBatch processes a batch of queries through GraphCache as one unit.
// Each query receives exactly the answer a standalone Query call would
// return — the pruning rules are sound, so answers never depend on cache
// contents — with results aligned to qs, id-ordered and deterministic at
// any shard count, pool size or caller interleaving. It is safe to call
// concurrently with Query and with other QueryBatch calls. Query is this
// pipeline run on a batch of one.
//
// What a batch shares across its queries:
//
//   - GCindex dispatch: every shard's index snapshot is loaded once per
//     batch and probed in one pass over the batch;
//   - verification fan-out: the GC containment confirmations of all
//     queries flatten into one work list over the shared worker pool, and
//     so do the Method-M sub-iso tests of all pruned candidate sets —
//     one pool dispatch per stage per batch;
//   - statistics: hit credits of the whole batch are folded into a
//     single CreditBatch per touched shard, and the lifetime totals into
//     a single locked accumulation.
//
// Sharing buys little engine time: on a 2-CPU Xeon BenchmarkQueryBatch
// measured 3.96 ms for batch-64 against 4.11 ms for 64 Query calls
// (median of 5 runs), within the host's run-to-run spread. What a batch
// buys is fewer round-trips for its caller.
//
// Method M filtering for the whole batch runs concurrently with the GC
// stage (§4, Figure 2). When every query of the batch is an exact-match
// hit or an empty-answer shortcut the call returns without waiting for
// it. Non-duplicate queries enter the Window in serial order and the
// Window Manager fires exactly as it would under sequential calls.
//
// Per-query timing statistics are stage-level apportionments — the GC
// stage's wall time is split evenly across the batch and the verification
// stage's proportionally to each query's candidate-set size — so their
// sums remain meaningful in Totals while individual values are estimates.
func (c *Cache) QueryBatch(qs []*graph.Graph) []Result {
	results, _, _ := c.queryBatch(nil, qs, nil)
	return results
}

// QueryBatchStream processes a batch like QueryBatch but delivers each
// Result the moment it is complete, instead of returning them all at
// the end. deliver is called exactly once per query — index i aligns
// with qs — and may be called concurrently from verification workers,
// so it must be safe for concurrent use. Queries resolved without
// verification (exact-match hits, empty-answer shortcuts, fully pruned
// candidate sets) are delivered before any sub-iso test runs, so the
// first results of a mixed batch arrive while the heavy tail is still
// verifying. Delivered answers are identical to the ones QueryBatch
// would return. Deliveries precede the batch's bookkeeping: a caller that
// needs Totals to count a query must wait for QueryBatchStream to return.
//
// ctx cancellation is the client-gone signal, for a batch of any size:
// once ctx.Err() is non-nil, unstarted verification work is abandoned (a
// query whose tests were already all in flight may still complete and be
// delivered; a partially verified query never is), and the batch
// leaves no trace in the cache — no window insertions, no hit credits,
// no totals. The number of abandoned sub-iso tests and ctx's error are
// returned. The cache only ever polls ctx.Err(), never waits on
// ctx.Done(), so composite contexts without a Done channel work.
func (c *Cache) QueryBatchStream(ctx context.Context, qs []*graph.Graph, deliver func(i int, r Result)) (abandoned int, err error) {
	_, abandoned, err = c.queryBatch(ctx, qs, deliver)
	return abandoned, err
}

// queryBatch is the one query pipeline, behind Query (a batch of one),
// QueryBatch (ctx and deliver nil: buffer everything, never cancel) and
// QueryBatchStream.
func (c *Cache) queryBatch(ctx context.Context, qs []*graph.Graph, deliver func(i int, r Result)) ([]Result, int, error) {
	n := len(qs)
	if n == 0 {
		return nil, 0, nil
	}
	if cancelled(ctx) {
		return nil, 0, ctx.Err()
	}
	c.enterQuery()
	defer c.exitQuery()

	// One contiguous serial block for the batch: query i is serial base+i,
	// so batch results order like sequential calls would.
	base := c.serial.Add(int64(n)) - int64(n) + 1
	results := make([]Result, n)
	bq := make([]batchQuery, n)
	for i := range results {
		results[i].Stats.Serial = base + int64(i)
	}

	// Telemetry: when an Observer is installed the batch times its GC
	// sub-stages (shared wall time, split evenly like FilterGCTime),
	// emitting one observation per query at the end. obs == nil adds no
	// clock reads beyond the existing ones.
	obs := c.observer()
	var featShare, probeShare, gcvShare int64

	// Method M filtering for the whole batch, dispatched concurrently with
	// the GC stage (§4, Figure 2): both receive the queries together and
	// their outputs meet at the Candidate Set Pruner. On special-case hits
	// the filter's output is discarded, as in the paper. The goroutine
	// holds its own inflight reference: a batch of special cases returns
	// without joining it, and the filter must not still be reading the
	// method's index when a mutation starts rewriting it.
	var filterWG sync.WaitGroup
	filterWG.Add(1)
	c.retainQuery()
	go func() {
		defer c.exitQuery()
		defer filterWG.Done()
		c.pool.ParallelFor(n, func(i int) {
			start := time.Now()
			bq[i].csM = c.m.Filter(qs[i])
			bq[i].mDur = time.Since(start)
		})
	}()

	// GC filtering stage. Feature extraction runs once per query, pooled;
	// the interned vectors double as the probe input, the new entries'
	// memoised vectors and their shard-routing hashes, and the extraction
	// counts as GC filtering time.
	gcStart := time.Now()
	c.pool.ParallelFor(n, func(i int) {
		bq[i].vec = c.vocab.VectorOf(pathfeat.SimplePaths(qs[i], c.opts.MaxPathLen))
		bq[i].hash = c.vocab.HashVector(bq[i].vec)
	})
	var probeStart time.Time
	if obs != nil {
		probeStart = time.Now()
		featShare = probeStart.Sub(gcStart).Nanoseconds() / int64(n)
	}

	// Load every shard's index snapshot once for the whole batch — all
	// queries probe the same generation — and probe each query in one
	// pooled pass, through the pooled probe scratch.
	nShards := len(c.shards)
	ixs := make([]*queryIndex, nShards)
	total := 0
	for si, sh := range c.shards {
		ixs[si] = sh.index.Load()
		total += ixs[si].size()
	}
	nChecks := 0
	if total > 0 {
		c.pool.ParallelFor(n, func(qi int) {
			bq[qi].checks, bq[qi].nSub = c.probeSnapshots(ixs, bq[qi].vec)
		})
		for qi := range bq {
			bq[qi].gcOff = nChecks
			nChecks += len(bq[qi].checks)
		}
	}

	var gcvStart time.Time
	if obs != nil {
		gcvStart = time.Now()
		probeShare = gcvStart.Sub(probeStart).Nanoseconds() / int64(n)
	}

	// Containment confirmations (cheap, small-vs-small sub-iso tests) for
	// the whole batch: one flattened dispatch through the shared pool,
	// query-major, containers before containees. Item k belongs to the
	// last query whose range starts at or before k.
	if nChecks > 0 {
		ok := make([]bool, nChecks)
		workers := c.adaptiveWorkers(&c.gcEWMA, nChecks)
		c.pool.ParallelForN(nChecks, workers, func(k int) {
			qi := sort.Search(n, func(i int) bool { return bq[i].gcOff > k }) - 1
			b := &bq[qi]
			if j := k - b.gcOff; j < b.nSub {
				ok[k] = iso.Contains(c.algo, qs[qi], b.checks[j].g)
			} else {
				ok[k] = iso.Contains(c.algo, b.checks[j].g, qs[qi])
			}
		})
		// The confirmed relations are compacted in place: checks is the
		// query's own list, and only its length is read from here on.
		for qi := range bq {
			b := &bq[qi]
			b.containers = keepConfirmed(b.checks[:b.nSub:b.nSub], ok[b.gcOff:])
			b.containees = keepConfirmed(b.checks[b.nSub:], ok[b.gcOff+b.nSub:])
		}
	}
	if obs != nil {
		gcvShare = time.Since(gcvStart).Nanoseconds() / int64(n)
	}
	// The EWMA tracks per-query candidate-set lengths, so feed it one
	// observation per query, not one per batch.
	for qi := range bq {
		c.gcEWMA.observe(float64(len(bq[qi].checks)))
	}
	gcShare := time.Since(gcStart) / time.Duration(n)

	// Special cases (§5.1). Hit credits are not applied yet: they
	// accumulate into per-shard op lists and land in one CreditBatch per
	// shard at the end of the batch. Deferring is safe — credit ops only
	// increment or max columns the batch itself never reads.
	shardOps := make([][]StatOp, nShards)
	// emitSpecial credits a special-case hit: the cached entry's own
	// first-execution candidate set and estimated cost stand in for the
	// (never computed) candidate set of the shortcut query.
	emitSpecial := func(b *batchQuery, e *entry, serial int64) {
		st := c.shardFor(e).stats
		ownCS := st.Get(e.serial, ColOwnCS)
		saved := st.Get(e.serial, ColOwnCost)
		si := c.shardIndexOf(e)
		shardOps[si] = append(shardOps[si],
			StatOp{Key: e.serial, Col: ColHits, Val: 1},
			StatOp{Key: e.serial, Col: ColSpecialHits, Val: 1},
			StatOp{Key: e.serial, Col: ColLastHit, Val: float64(serial), Max: true},
			StatOp{Key: e.serial, Col: ColCSReduction, Val: ownCS},
			StatOp{Key: e.serial, Col: ColTimeSaving, Val: saved})
		b.saved += saved
	}
	needFilter := false
	for qi := range bq {
		b := &bq[qi]
		st := &results[qi].Stats
		st.FilterGCTime = gcShare
		st.GCVerifications = len(b.checks)
		st.Containers, st.Containees = len(b.containers), len(b.containees)

		// Special case 1: an isomorphic cached query answers q outright.
		if !c.opts.DisableExactMatch {
			if e := findExact(qs[qi].NumVertices(), qs[qi].NumEdges(), b.containers, b.containees); e != nil {
				emitSpecial(b, e, st.Serial)
				st.ExactHit = true
				st.AnswerSize = len(e.answer)
				results[qi].Answer = cloneIDs(e.answer)
				b.state = stateExact
				continue
			}
		}
		// Special case 2: a contained cached query (containing, for
		// supergraph queries) with an empty answer proves q's answer empty.
		emptyCandidates := b.containees
		if c.m.Mode() == method.ModeSupergraph {
			emptyCandidates = b.containers
		}
		if e := findEmptyAnswer(emptyCandidates); e != nil {
			emitSpecial(b, e, st.Serial)
			st.EmptyShortcut = true
			b.state = stateEmpty
			continue
		}
		needFilter = true
	}

	// emitMatch credits a verified match (§5.2): hit count, recency,
	// candidate-set reduction and estimated time saving, from the credit
	// attribution prune computed.
	emitMatch := func(b *batchQuery, q *graph.Graph, serial int64, e *entry, credit map[int64][]int32) {
		si := c.shardIndexOf(e)
		shardOps[si] = append(shardOps[si],
			StatOp{Key: e.serial, Col: ColHits, Val: 1},
			StatOp{Key: e.serial, Col: ColLastHit, Val: float64(serial), Max: true})
		removed := credit[e.serial]
		if len(removed) == 0 {
			return
		}
		saved := 0.0
		for _, gid := range removed {
			saved += c.costEstimate(q, gid)
		}
		shardOps[si] = append(shardOps[si],
			StatOp{Key: e.serial, Col: ColCSReduction, Val: float64(len(removed))},
			StatOp{Key: e.serial, Col: ColTimeSaving, Val: saved})
		b.saved += saved
	}

	// Candidate-set pruning (Eq. 1 then Eq. 2; inverted roles for
	// supergraph queries) per remaining query, whose sets then flatten
	// into one verification list. Removed-graph IDs are masked out of
	// Method M's candidate sets: FTV filters may keep stale postings for
	// tombstoned graphs. A batch of special cases never joins the filter.
	nPairs := 0
	if needFilter {
		filterWG.Wait()
		ds := c.m.Dataset()
		for qi := range bq {
			b := &bq[qi]
			b.vOff = nPairs
			if b.state != stateNormal {
				continue
			}
			st := &results[qi].Stats
			b.csM = ds.FilterLive(b.csM)
			st.FilterMTime = b.mDur
			st.CandidatesM = len(b.csM)

			providers, restrictors := b.containers, b.containees
			if c.m.Mode() == method.ModeSupergraph {
				providers, restrictors = b.containees, b.containers
			}
			var credit map[int64][]int32
			b.direct, b.cs, credit = prune(b.csM, providers, restrictors)
			st.DirectAnswers = len(b.direct)
			st.CandidatesFinal = len(b.cs)
			st.SubIsoTests = len(b.cs)
			nPairs += len(b.cs)
			for _, e := range providers {
				emitMatch(b, qs[qi], st.Serial, e, credit)
			}
			for _, e := range restrictors {
				emitMatch(b, qs[qi], st.Serial, e, credit)
			}
		}
	}

	// The batch's cheap resolutions are now final: in streaming mode,
	// flush every query that needs no verification before dispatching
	// any sub-iso work, so the client's first results never wait on the
	// batch's heavy tail. A dead client abandons the whole pair list.
	if cancelled(ctx) {
		return nil, nPairs, ctx.Err()
	}
	if deliver != nil {
		for qi := range bq {
			if bq[qi].state != stateNormal {
				deliver(qi, results[qi])
				continue
			}
			if len(bq[qi].cs) == 0 {
				r := results[qi]
				r.Answer = cloneIDs(unionSorted(bq[qi].direct, nil))
				r.Stats.AnswerSize = len(r.Answer)
				deliver(qi, r)
			}
		}
	}

	// Verification of the pruned candidate sets with Method M's verifier,
	// fanned out over the bounded worker pool, sized adaptively from the
	// recent candidate-set lengths. Verdicts align with each query's cs,
	// so answers are id-ordered and deterministic.
	var vDur time.Duration
	verdicts := make([]bool, nPairs)
	abandoned := 0
	if nPairs > 0 {
		var skipped atomic.Int64
		vStart := time.Now()
		// deliverVerified flushes query qi once its last verdict lands.
		// Answer assembly here mirrors the buffered loop below exactly;
		// the Result is a private copy, so the buffered loop's later
		// writes to results[qi] never race with a delivered value.
		deliverVerified := func(qi int) {
			b := &bq[qi]
			r := results[qi]
			r.Answer = cloneIDs(unionSorted(b.direct, positives(b.cs, verdicts[b.vOff:])))
			r.Stats.AnswerSize = len(r.Answer)
			r.Stats.VerifyTime = time.Since(vStart)
			deliver(qi, r)
		}
		if bv, ok := c.m.(method.BatchVerifier); ok {
			// Methods with internal verification parallelism keep their
			// own pool: one VerifyBatch per query, fanned over the batch.
			c.pool.ParallelFor(n, func(qi int) {
				b := &bq[qi]
				if len(b.cs) == 0 {
					return
				}
				if cancelled(ctx) {
					skipped.Add(int64(len(b.cs)))
					return
				}
				copy(verdicts[b.vOff:b.vOff+len(b.cs)], bv.VerifyBatch(qs[qi], b.cs))
				if deliver != nil {
					deliverVerified(qi)
				}
			})
		} else {
			workers := c.adaptiveWorkers(&c.verifyEWMA, nPairs)
			// pending counts each query's unfinished pairs; the worker
			// that decrements it to zero has a happens-before edge on
			// every sibling verdict and delivers the completed answer.
			// Skipped pairs never decrement, so a query touched by
			// cancellation can never be delivered partially verified.
			var pending []atomic.Int32
			if deliver != nil {
				pending = make([]atomic.Int32, n)
				for qi := range bq {
					pending[qi].Store(int32(len(bq[qi].cs)))
				}
			}
			c.pool.ParallelForN(nPairs, workers, func(k int) {
				if cancelled(ctx) {
					skipped.Add(1)
					return
				}
				// Pair k belongs to the last query whose range starts at
				// or before k.
				qi := sort.Search(n, func(i int) bool { return bq[i].vOff > k }) - 1
				b := &bq[qi]
				verdicts[k] = c.m.Verify(qs[qi], b.cs[k-b.vOff])
				if deliver != nil && pending[qi].Add(-1) == 0 {
					deliverVerified(qi)
				}
			})
		}
		vDur = time.Since(vStart)
		abandoned = int(skipped.Load())
	}
	if cancelled(ctx) {
		// Cut short: everything delivered so far was fully verified, but
		// the batch as a whole never happened as far as the cache is
		// concerned — no credits, no window entries, no totals. Caching
		// a partially verified batch would poison future answers;
		// skipping bookkeeping merely forgoes an optimisation.
		return nil, abandoned, ctx.Err()
	}

	for qi := range bq {
		b := &bq[qi]
		if b.state != stateNormal {
			continue
		}
		c.verifyEWMA.observe(float64(len(b.cs)))
		b.answer = unionSorted(b.direct, positives(b.cs, verdicts[b.vOff:]))
		st := &results[qi].Stats
		st.AnswerSize = len(b.answer)
		if nPairs > 0 {
			st.VerifyTime = vDur * time.Duration(len(b.cs)) / time.Duration(nPairs)
		}
		results[qi].Answer = cloneIDs(b.answer)
	}

	// Statistics: one CreditBatch round-trip per touched shard for the
	// whole batch, one savings fold, one totals accumulation. Savings
	// land before the window can fire, so a window's gain always
	// includes the savings of the query that filled it.
	for si, ops := range shardOps {
		if len(ops) > 0 {
			c.shards[si].stats.CreditBatch(ops)
		}
	}
	totalSaved := 0.0
	for qi := range bq {
		totalSaved += bq[qi].saved
	}
	c.addSavings(totalSaved)

	// Window bookkeeping, in serial order: the query, its answer and its
	// first-execution statistics enter the Window store. Exact hits are
	// duplicates of cached queries and skip the Window, and the Window
	// Manager triggers mid-batch exactly when a segment append fills the
	// global window.
	for qi := range bq {
		b := &bq[qi]
		if b.state == stateExact {
			continue
		}
		st := results[qi].Stats
		e := &entry{serial: st.Serial, g: qs[qi], answer: b.answer, vec: b.vec, vecOK: true, hash: b.hash, hashed: true}
		if b.state == stateEmpty {
			c.addToWindow(&windowEntry{e: e, filterNS: float64(st.FilterGCTime.Nanoseconds())}, st.Serial)
		} else {
			ownCost := 0.0
			for _, gid := range b.csM {
				ownCost += c.costEstimate(qs[qi], gid)
			}
			c.addToWindow(&windowEntry{
				e:        e,
				filterNS: float64((st.FilterMTime + st.FilterGCTime).Nanoseconds()),
				verifyNS: float64(st.VerifyTime.Nanoseconds()),
				ownCS:    len(b.csM),
				ownCost:  ownCost,
			}, st.Serial)
		}
	}

	c.accumulateBatch(results)
	if obs != nil {
		for qi := range results {
			emitQuery(obs, &results[qi].Stats, featShare, probeShare, gcvShare, bq[qi].saved, n > 1)
		}
	}
	return results, 0, nil
}

// cancelled reports whether ctx is cancelled. It polls, never waits: ctx
// may be a composite over many waiters whose Done channel is unavailable,
// but Err is exact. A nil ctx never cancels.
func cancelled(ctx context.Context) bool { return ctx != nil && ctx.Err() != nil }

// keepConfirmed compacts es in place to the entries whose verdict is
// true; ok[j] belongs to es[j].
func keepConfirmed(es []*entry, ok []bool) []*entry {
	out := es[:0]
	for j, e := range es {
		if ok[j] {
			out = append(out, e)
		}
	}
	return out
}

// positives returns the ids of cs whose verdict is true; verdicts[k]
// belongs to cs[k].
func positives(cs []int32, verdicts []bool) []int32 {
	var out []int32
	for k, id := range cs {
		if verdicts[k] {
			out = append(out, id)
		}
	}
	return out
}

// accumulateBatch folds a call's per-query stats into the lifetime totals
// under a single lock acquisition. Only multi-query calls count as
// batches.
func (c *Cache) accumulateBatch(results []Result) {
	c.totMu.Lock()
	defer c.totMu.Unlock()
	if len(results) > 1 {
		c.tot.Batches++
	}
	for i := range results {
		c.accumulateLocked(results[i].Stats)
	}
}
