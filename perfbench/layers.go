package main

import (
	"strings"
	"sync"
	"time"

	"graphcache/internal/core"
	"graphcache/internal/dataset"
	"graphcache/internal/ggsx"
	"graphcache/internal/graph"
	"graphcache/internal/pathfeat"
	"graphcache/internal/telemetry"
)

// cacheOptions are gcserved's defaults: cache 100, window 20, HD, with
// window maintenance off the query path.
func cacheOptions() core.Options {
	return core.Options{CacheSize: 100, WindowSize: 20, Policy: core.HD, AsyncRebuild: true}
}

// featureLen is the cache's default GCindex feature length in edges
// (core.Options.MaxPathLen).
const featureLen = 4

// engineObserver sums the cache's per-query stage times and its window
// passes. Unlike gcserved's /metrics, it keeps the GC stage's split into
// feature extraction, probe and confirmation for batched queries too.
type engineObserver struct {
	mu       sync.Mutex
	sum      core.QueryObservation // stage times summed over queries
	queries  int
	windowNS int64
}

func (o *engineObserver) ObserveQuery(q core.QueryObservation) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.queries++
	o.sum.FeatureNS += q.FeatureNS
	o.sum.ProbeNS += q.ProbeNS
	o.sum.GCVerifyNS += q.GCVerifyNS
	o.sum.FilterGCNS += q.FilterGCNS
	o.sum.FilterMNS += q.FilterMNS
	o.sum.VerifyNS += q.VerifyNS
	o.sum.TotalNS += q.TotalNS
}

func (o *engineObserver) ObserveWindow(w core.WindowObservation) {
	o.mu.Lock()
	o.windowNS += w.DurationNS
	o.mu.Unlock()
}

// meanMS is a per-query mean of summed nanoseconds, in milliseconds.
func (o *engineObserver) meanMS(ns int64) float64 { return ratio(float64(ns)/1e6, float64(o.queries)) }

// ReplayResult is the in-process replay of the operations a traced pass
// sent: once through a Cache, once through bare ggsx, and once through
// path-feature extraction and interning alone.
type ReplayResult struct {
	Queries        int
	CachedTime     time.Duration // wall time in Cache.Query / QueryBatch
	CachedSubIso   int
	Engine         *engineObserver
	BareTime       time.Duration
	BareFilter     time.Duration
	BareVerify     time.Duration
	BareCandidates int
	ExtractTime    time.Duration
	InternTime     time.Duration
	VocabSize      int
}

// Replay replays ops [0, n) of s in stream order over fresh copies of
// graphs. Mutations are applied on both the cached and the bare side
// but are not timed.
func Replay(graphs []*graph.Graph, s *Stream, n int) ReplayResult {
	var rr ReplayResult
	ops := s.Ops[:n]

	ds := dataset.New(cloneAll(graphs))
	c := core.New(ggsx.New(ds, ggsx.Options{}), cacheOptions())
	obs := &engineObserver{}
	c.SetObserver(obs)
	for _, op := range ops {
		switch op.Kind {
		case OpQuery:
			t := time.Now()
			res := c.Query(s.Queries[op.Queries[0]])
			rr.CachedTime += time.Since(t)
			rr.CachedSubIso += res.Stats.SubIsoTests
		case OpBatch:
			qs := make([]*graph.Graph, len(op.Queries))
			for k, qi := range op.Queries {
				qs[k] = s.Queries[qi]
			}
			t := time.Now()
			results := c.QueryBatch(qs)
			rr.CachedTime += time.Since(t)
			for _, res := range results {
				rr.CachedSubIso += res.Stats.SubIsoTests
			}
		case OpMutate:
			if _, err := c.ApplyMutation(op.Mut.Core()); err != nil {
				panic(err) // the generator tracks liveness; TestStreamReplays covers it
			}
		}
	}
	c.Flush()
	rr.Engine = obs

	bds := dataset.New(cloneAll(graphs))
	bare := ggsx.New(bds, ggsx.Options{})
	for _, op := range ops {
		if op.Kind == OpMutate {
			applyMutation(bds, bare, op.Mut.Core())
			continue
		}
		for _, qi := range op.Queries {
			q := s.Queries[qi]
			t0 := time.Now()
			cs := bds.FilterLive(bare.Filter(q))
			t1 := time.Now()
			for _, id := range cs {
				bare.Verify(q, id)
			}
			t2 := time.Now()
			rr.Queries++
			rr.BareFilter += t1.Sub(t0)
			rr.BareVerify += t2.Sub(t1)
			rr.BareCandidates += len(cs)
		}
	}
	rr.BareTime = rr.BareFilter + rr.BareVerify

	vb := pathfeat.NewVocab()
	for _, op := range ops {
		for _, qi := range op.Queries {
			t0 := time.Now()
			counts := pathfeat.SimplePaths(s.Queries[qi], featureLen)
			t1 := time.Now()
			vb.VectorOf(counts)
			rr.ExtractTime += t1.Sub(t0)
			rr.InternTime += time.Since(t1)
		}
	}
	rr.VocabSize = vb.Len()
	return rr
}

func cloneAll(gs []*graph.Graph) []*graph.Graph {
	out := make([]*graph.Graph, len(gs))
	for i, g := range gs {
		out[i] = g.Clone()
	}
	return out
}

// spanTotals sums one traced query's spans by layer.
type spanTotals struct {
	routerDecode, routerDispatch, serverDecode, coalesceWait, engineTotal time.Duration
}

func sumSpans(tr *telemetry.Trace) spanTotals {
	var st spanTotals
	for _, sp := range tr.Spans {
		d := time.Duration(sp.DurNS)
		switch {
		case sp.Name == "router:decode":
			st.routerDecode += d
		case strings.HasPrefix(sp.Name, "router:dispatch"):
			st.routerDispatch += d
		case sp.Name == "server:decode":
			st.serverDecode += d
		case sp.Name == "server:coalesce_wait":
			st.coalesceWait += d
		case sp.Name == "engine:total":
			st.engineTotal += d
		}
	}
	return st
}

// delta is one metric family's change over a pass, summed across
// daemons: after minus before.
type delta struct{ before, after Metrics }

func (d delta) router(name string, labels map[string]string) float64 {
	return sumSamples(d.after.Router, name, labels) - sumSamples(d.before.Router, name, labels)
}

func (d delta) backends(name string, labels map[string]string) float64 {
	total := 0.0
	for i := range d.after.Backends {
		total += sumSamples(d.after.Backends[i], name, labels) - sumSamples(d.before.Backends[i], name, labels)
	}
	return total
}

// backendShareMax is the largest share of router dispatches any one
// backend received.
func (d delta) backendShareMax() float64 {
	per := map[string]float64{}
	total := 0.0
	for _, s := range d.after.Router {
		if s.Name != "graphcache_router_dispatch_seconds_count" {
			continue
		}
		n := s.Value - sumSamples(d.before.Router, s.Name, map[string]string{"backend": s.Labels["backend"]})
		per[s.Labels["backend"]] += n
		total += n
	}
	top := 0.0
	for _, n := range per {
		top = max(top, n)
	}
	return ratio(top, total)
}

// servedTotalMS is the backends' mean per-query engine time over the
// pass, in milliseconds.
func (d delta) servedTotalMS() float64 {
	l := map[string]string{"stage": "total"}
	return 1000 * ratio(d.backends("graphcache_query_duration_seconds_sum", l), d.backends("graphcache_query_duration_seconds_count", l))
}

// Layers computes the per-layer metrics of a traced run: untraced is
// the run's untraced pass, traced the pass with ?debug=trace on every
// single query, d the /metrics deltas over the traced pass and rr the
// in-process replay of the traced pass's operations. Engine stage times
// come from the replay's Observer; core.served_total_ms is the same
// engine measured by the backends under the pass's concurrency.
func Layers(wl *Workload, untraced, traced Pass, d delta, rr ReplayResult) []Metric {
	ust := summarise(untraced, wl.Limit)
	tst := summarise(traced, wl.Limit)
	q := float64(tst.queries)

	// Served per-query engine statistics.
	var exact, empty, contain, gcTests, useful int
	var spans []spanTotals
	var tracedMS []float64
	for i := range traced.Recs {
		r := &traced.Recs[i]
		if r.Err != nil {
			continue
		}
		for _, res := range r.Results {
			qs := res.Stats
			switch {
			case qs.ExactHit:
				exact++
			case qs.EmptyShortcut:
				empty++
			case qs.Containers > 0 || qs.Containees > 0:
				contain++
			}
			gcTests += qs.GCVerifications
			useful += qs.Containers + qs.Containees
			if res.Trace != nil {
				spans = append(spans, sumSpans(res.Trace))
				tracedMS = append(tracedMS, ms(r.Done-r.Sent))
			}
		}
	}
	var self, sdec, wait, eng []float64
	for _, st := range spans {
		self = append(self, ms(st.routerDecode+st.routerDispatch-st.serverDecode-st.coalesceWait-st.engineTotal))
		sdec = append(sdec, ms(st.serverDecode))
		wait = append(wait, ms(st.coalesceWait))
		eng = append(eng, ms(st.engineTotal))
	}
	tracedMean := mean(tracedMS)
	accounted := ratio(mean(self)+mean(sdec)+mean(wait)+mean(eng), tracedMean)

	codec := func(op string) float64 {
		l := map[string]string{"op": op}
		secs := d.router("graphcache_router_codec_seconds_sum", l) + d.backends("graphcache_server_codec_seconds_sum", l)
		return 1e6 * ratio(secs, q)
	}
	perReq := func(sum, count float64) float64 { return 1000 * ratio(sum, count) }
	mutations := d.backends("graphcache_mutations_applied_total", nil)
	obs := rr.Engine
	bareMS := ratio(ms(rr.BareTime), float64(rr.Queries))

	layers := []Metric{
		{"loadgen.lag_p99_ms", "ms", quantile(tst.lagMS, 0.99)},

		{"router.self_ms", "ms", mean(self)},
		{"router.decode_ms", "ms", perReq(d.router("graphcache_router_codec_seconds_sum", map[string]string{"op": "decode"}),
			d.router("graphcache_router_codec_seconds_count", map[string]string{"op": "decode"}))},
		{"router.backend_share_max", "ratio", d.backendShareMax()},
		{"router.retried", "count", d.router("graphcache_router_retried_total", nil)},
		{"router.shed", "count", d.router("graphcache_router_shed_total", nil)},

		{"server.decode_ms", "ms", perReq(d.backends("graphcache_server_codec_seconds_sum", map[string]string{"op": "decode"}),
			d.backends("graphcache_server_codec_seconds_count", map[string]string{"op": "decode"}))},
		{"server.coalesce_wait_ms", "ms", mean(wait)},
		{"server.batch_size_mean", "count", ratio(d.backends("graphcache_server_batch_size_sum", nil), d.backends("graphcache_server_batch_size_count", nil))},
		{"server.shed", "count", d.backends("graphcache_server_shed_total", nil)},

		{"graph.request_bytes_per_query", "B", ratio(d.router("graphcache_codec_bytes_total", map[string]string{"direction": "in"}), q)},
		{"graph.result_bytes_per_query", "B", ratio(d.router("graphcache_codec_bytes_total", map[string]string{"direction": "out"}), q)},
		{"graph.encode_us_per_query", "us", codec("encode")},
		{"graph.decode_us_per_query", "us", codec("decode")},

		{"core.total_ms", "ms", obs.meanMS(obs.sum.TotalNS)},
		{"core.feature_ms", "ms", obs.meanMS(obs.sum.FeatureNS)},
		{"core.probe_ms", "ms", obs.meanMS(obs.sum.ProbeNS)},
		{"core.gcverify_ms", "ms", obs.meanMS(obs.sum.GCVerifyNS)},
		{"core.filter_gc_ms", "ms", obs.meanMS(obs.sum.FilterGCNS)},
		{"core.filter_m_ms", "ms", obs.meanMS(obs.sum.FilterMNS)},
		{"core.verify_ms", "ms", obs.meanMS(obs.sum.VerifyNS)},
		{"core.window_ms_per_query", "ms", obs.meanMS(obs.windowNS)},
		{"core.served_total_ms", "ms", d.servedTotalMS()},
		{"core.exact_hit_frac", "ratio", ratio(float64(exact), q)},
		{"core.empty_shortcut_frac", "ratio", ratio(float64(empty), q)},
		{"core.containment_hit_frac", "ratio", ratio(float64(contain), q)},
		{"core.gc_tests_per_query", "count", ratio(float64(gcTests), q)},
		{"core.gc_useful_frac", "ratio", ratio(float64(useful), float64(gcTests))},
		{"core.calls_saved_frac", "ratio", 1 - ratio(float64(rr.CachedSubIso), float64(rr.BareCandidates))},
		{"core.speedup_vs_bare", "ratio", ratio(float64(rr.BareTime), float64(rr.CachedTime))},
		{"core.mutate_apply_ms", "ms", perReq(d.backends("graphcache_mutation_seconds_sum", nil), d.backends("graphcache_mutation_seconds_count", nil))},
		{"core.entries_invalidated_per_mutation", "count", ratio(d.backends("graphcache_mutation_entries_invalidated_total", nil), mutations)},
		{"core.entries_reverified_per_mutation", "count", ratio(d.backends("graphcache_mutation_entries_reverified_total", nil), mutations)},
		{"core.entries_extended_per_mutation", "count", ratio(d.backends("graphcache_mutation_entries_extended_total", nil), mutations)},

		{"pathfeat.extract_us", "us", 1e-3 * ratio(float64(rr.ExtractTime), float64(rr.Queries))},
		{"pathfeat.intern_us", "us", 1e-3 * ratio(float64(rr.InternTime), float64(rr.Queries))},
		{"pathfeat.vocab_size", "count", float64(rr.VocabSize)},
		{"pathfeat.new_features_per_query", "count", ratio(float64(rr.VocabSize), float64(rr.Queries))},

		{"ggsx.filter_us", "us", 1e-3 * ratio(float64(rr.BareFilter), float64(rr.Queries))},
		{"ggsx.candidates_per_query", "count", ratio(float64(rr.BareCandidates), float64(rr.Queries))},
		{"ggsx.verify_us_per_test", "us", 1e-3 * ratio(float64(rr.BareVerify), float64(rr.BareCandidates))},
		{"ggsx.bare_ms_per_query", "ms", bareMS},

		{"trace.query_ms", "ms", tracedMean},
		{"trace.accounted_frac", "ratio", accounted},
		{"trace.overhead_read_p50_ms", "ms", quantile(tst.latMS, 0.5) - quantile(ust.latMS, 0.5)},
		{"trace.overhead_read_tail_ms", "ms", quantile(tst.latMS, wl.Tail) - quantile(ust.latMS, wl.Tail)},
		{"trace.overhead_queries_per_s", "1/s", ratio(q, tst.elapsed.Seconds()) - ratio(float64(ust.queries), ust.elapsed.Seconds())},
	}
	for _, m := range Extra(wl, untraced) {
		m.Name = "e2e." + m.Name
		layers = append(layers, m)
	}
	return layers
}
