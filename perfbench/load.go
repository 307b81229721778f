package main

import (
	"context"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/graph"
	"graphcache/internal/server"
)

// requestTimeout bounds one request; a request that takes longer counts
// as failed.
const requestTimeout = 30 * time.Second

// Record is what happened to one operation. Times are offsets from the
// start of the run.
type Record struct {
	Kind   OpKind
	Sched  time.Duration // when the operation was due (open loop) or issued (closed loop)
	Issued time.Duration // when the generator started it
	Sent   time.Duration // when it got a connection and went on the wire
	Done   time.Duration
	Err    error
	// Results holds one response per query of a read, in order.
	Results []server.QueryResponse
}

// Latency is the operation's latency, timed from when it was due.
func (r *Record) Latency() time.Duration { return r.Done - r.Sched }

// Lag is how late the generator issued the operation.
func (r *Record) Lag() time.Duration { return r.Issued - r.Sched }

// Connections is the most connections the load generator opens to any
// one daemon: one per CPU.
var Connections = runtime.NumCPU()

// newClient returns a client of the router that shares the process's
// connection pool, capped at Connections.
func newClient(addr string, binary bool) *server.Client {
	return server.NewClientWith(addr, server.ClientOptions{RequestTimeout: requestTimeout, WireBinary: binary})
}

func init() {
	// server.Client sends through http.DefaultTransport.
	t := http.DefaultTransport.(*http.Transport)
	t.MaxConnsPerHost = Connections
	t.MaxIdleConnsPerHost = Connections
}

// driver sends one stream's operations to the fleet.
type driver struct {
	cl    *server.Client
	s     *Stream
	trace bool // ask for ?debug=trace on every single query
	start time.Time
	// mutDone[k] is closed once mutation k has been answered: mutations
	// go out strictly in stream order, each only after the one before
	// was acknowledged, so every one is valid when it arrives.
	mutDone []chan struct{}
	mutIdx  map[int]int // op index → mutation ordinal
}

func newDriver(cl *server.Client, s *Stream, trace bool) *driver {
	d := &driver{cl: cl, s: s, trace: trace, mutIdx: map[int]int{}}
	for i, op := range s.Ops {
		if op.Kind == OpMutate {
			d.mutIdx[i] = len(d.mutDone)
			d.mutDone = append(d.mutDone, make(chan struct{}))
		}
	}
	return d
}

// do sends operation i and fills rec.
func (d *driver) do(ctx context.Context, i int, rec *Record) {
	op := d.s.Ops[i]
	rec.Kind = op.Kind
	rec.Issued = time.Since(d.start)
	if op.Kind == OpMutate {
		k := d.mutIdx[i]
		defer close(d.mutDone[k])
		if k > 0 {
			select {
			case <-d.mutDone[k-1]:
			case <-ctx.Done():
			}
		}
	}
	// The request waits in the connection pool until a connection is
	// free; it is sent once it has one.
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { rec.Sent = time.Since(d.start) },
	})
	switch op.Kind {
	case OpQuery:
		q := d.s.Queries[op.Queries[0]]
		var resp server.QueryResponse
		if d.trace {
			resp, rec.Err = d.cl.QueryTrace(ctx, q)
		} else {
			resp, rec.Err = d.cl.Query(ctx, q)
		}
		rec.Results = []server.QueryResponse{resp}
	case OpBatch:
		qs := make([]*graph.Graph, len(op.Queries))
		for k, qi := range op.Queries {
			qs[k] = d.s.Queries[qi]
		}
		rec.Results, rec.Err = d.cl.QueryBatch(ctx, qs)
	case OpMutate:
		_, rec.Err = d.cl.Mutate(ctx, op.Mut.Request())
	}
	rec.Done = time.Since(d.start)
}

// RunOpen sends every operation of s at its scheduled time, rate per
// second, each from its own goroutine, as independent users would. The
// connection pool caps concurrent requests at Connections; an operation
// due while every connection is busy queues for one, and the wait
// counts in its latency. Lag is how late the scheduler started it.
func RunOpen(ctx context.Context, cl *server.Client, s *Stream, rate float64, trace bool) []Record {
	d := newDriver(cl, s, trace)
	recs := make([]Record, len(s.Ops))
	var wg sync.WaitGroup
	d.start = time.Now()
	for i := range s.Ops {
		at := time.Duration(float64(i) / rate * float64(time.Second))
		recs[i].Sched = at
		if wait := at - time.Since(d.start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				wg.Wait()
				return recs[:i]
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(ctx, requestTimeout)
			defer cancel()
			d.do(rctx, i, &recs[i])
		}()
	}
	wg.Wait()
	return recs
}

// RunClosed runs clients closed loops over s for the given time: each
// client sends the next operation as soon as its previous one is
// answered. It returns the records of the operations issued, a prefix
// of s.Ops.
func RunClosed(ctx context.Context, cl *server.Client, s *Stream, clients int, dur time.Duration) []Record {
	d := newDriver(cl, s, false)
	recs := make([]Record, len(s.Ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	d.start = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Since(d.start)
				if now >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(s.Ops) {
					return
				}
				recs[i].Sched = now
				rctx, cancel := context.WithTimeout(ctx, requestTimeout)
				d.do(rctx, i, &recs[i])
				cancel()
			}
		}()
	}
	wg.Wait()
	return recs[:min(int(next.Load()), len(s.Ops))]
}
