// Command perfbench is the repository's served benchmark. It drives
// client → gcrouter (replicate mode) → two gcserved backends, each its
// own process on loopback, on a fresh fleet with empty caches, checks
// every answer against method.Answer, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer breakdown). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds the
// daemons and this command first:
//
//	bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads and the metric → layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"graphcache/internal/dataset"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// Workload is one traffic mix.
type Workload struct {
	Name string
	// Stream builds the operations for a run of secs seconds.
	Stream func(graphs []*graph.Graph, seed int64, secs float64) *Stream
	// Rate is the open-loop arrival rate in operations per second;
	// 0 means a closed loop of Clients clients.
	Rate    float64
	Clients int
	Binary  bool          // binary GCBF requests and GCRB results
	Journal bool          // backends fsync a write-ahead log before each mutation ack
	Limit   time.Duration // goodput latency limit of one read
	Tail    float64       // quantile reported as read_tail_ms
}

const (
	hotRate   = 150 // operations per second on the open-loop workloads
	batchSize = 32
	mutEvery  = 50 // every 50th mixed-rw operation is a mutation
)

var workloads = []*Workload{
	{
		Name: "hot-zipf",
		Stream: func(gs []*graph.Graph, seed int64, secs float64) *Stream {
			return SingleStream(datasetOf(gs), "ZZ", int(hotRate*secs), seed)
		},
		Rate: hotRate, Limit: 50 * time.Millisecond, Tail: 0.99,
	},
	{
		Name: "cold-batch",
		Stream: func(gs []*graph.Graph, seed int64, secs float64) *Stream {
			// Room for far more batches than the fleet answers in secs.
			return BatchStream(datasetOf(gs), "UU", int(600*secs/batchSize)+1, batchSize, seed)
		},
		Clients: 2, Binary: true, Limit: 2 * time.Second, Tail: 0.90,
	},
	{
		Name: "mixed-rw",
		Stream: func(gs []*graph.Graph, seed int64, secs float64) *Stream {
			return MixedStream(datasetOf(gs), "ZZ", int(hotRate*secs), mutEvery, seed)
		},
		Rate: hotRate, Journal: true, Limit: 50 * time.Millisecond, Tail: 0.99,
	},
}

// setups is how many fleets an untraced run launches to time set-up;
// the last one serves the run.
const setups = 3

// datasetGraphs is the benchmark's dataset: AIDS-like, 4,000 graphs,
// the same as `gcgen dataset -name aids -count-factor 0.1 -seed 1`.
func datasetGraphs() []*graph.Graph {
	return gen.DefaultAIDS().Scaled(0.1, 1).Generate(1).Graphs()
}

// datasetOf wraps copies of gs as a dataset for the stream generators.
func datasetOf(gs []*graph.Graph) *dataset.Dataset { return dataset.New(cloneAll(gs)) }

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: hot-zipf, cold-batch or mixed-rw")
		seed    = flag.Int64("seed", 1, "seed of the generated operation stream")
		seconds = flag.Float64("seconds", 15, "measured seconds of load")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
		binDir  = flag.String("bin", filepath.Join(".bench_build", "perfbench", "bin"), "directory holding gcserved and gcrouter")
	)
	flag.Parse()
	var wl *Workload
	for _, w := range workloads {
		if w.Name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload hot-zipf|cold-batch|mixed-rw, -seconds > 0 and -trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	work, err := os.MkdirTemp(filepath.Dir(*binDir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	graphs := datasetGraphs()
	dsFile := filepath.Join(work, "aids.g")
	if err := writeGraphs(dsFile, graphs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	s := wl.Stream(graphs, *seed, *seconds)
	b := &bench{
		wl: wl, s: s, graphs: graphs, dur: time.Duration(*seconds * float64(time.Second)),
		cfg: FleetConfig{BinDir: *binDir, Dataset: dsFile, WorkDir: work, Journal: wl.Journal},
	}
	var out Result
	if *trace == 0 {
		out, err = b.untraced(ctx)
	} else {
		out, err = b.traced(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", wl.Name, *seed, *seconds, *trace)
	for _, m := range append(out.metrics, out.extra...) {
		fmt.Printf("  %-40s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if out.wrong != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", out.wrong)
	}
	line, err := out.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	if out.wrong != nil {
		return 1
	}
	return 0
}

func writeGraphs(path string, gs []*graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.Write(f, gs); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// Result is one run's outcome.
type Result struct {
	metrics   []Metric // the reported metrics, by name in the JSON line
	extra     []Metric // printed, not reported
	attempted int
	failed    int
	wrong     error // the first wrong answer, if any
}

// JSON renders the result line.
func (r Result) JSON() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, m := range r.metrics {
		vals[m.Name] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.wrong == nil, r.attempted, r.failed, vals})
	return string(data), err
}

// bench runs one workload.
type bench struct {
	wl     *Workload
	s      *Stream
	graphs []*graph.Graph
	dur    time.Duration
	cfg    FleetConfig
	fleets int
}

func (b *bench) fleet(ctx context.Context) (*Fleet, error) {
	b.fleets++
	return StartFleet(ctx, b.cfg, b.fleets)
}

// drive runs the workload's load against f and samples the daemons'
// CPU time around it and their peak RSS after it.
func (b *bench) drive(ctx context.Context, f *Fleet, trace bool) (Pass, error) {
	cl := newClient(f.Router.addr, b.wl.Binary)
	cpu0, err := f.CPUTime()
	if err != nil {
		return Pass{}, err
	}
	var p Pass
	if b.wl.Rate > 0 {
		p.Recs = RunOpen(ctx, cl, b.s, b.wl.Rate, trace)
	} else {
		p.Recs = RunClosed(ctx, cl, b.s, b.wl.Clients, b.dur)
	}
	if err := ctx.Err(); err != nil {
		return p, err
	}
	cpu1, err := f.CPUTime()
	if err != nil {
		return p, err
	}
	p.CPU = cpu1 - cpu0
	p.PeakRSS, err = f.PeakRSS()
	return p, err
}

// untraced is the end-to-end run: set-up timed on several fresh fleets,
// then the load on the last one.
func (b *bench) untraced(ctx context.Context) (Result, error) {
	var times []time.Duration
	var f *Fleet
	for i := 0; i < setups; i++ {
		var err error
		if f, err = b.fleet(ctx); err != nil {
			return Result{}, err
		}
		times = append(times, f.Setup)
		if i < setups-1 {
			f.Stop()
		}
	}
	p, err := b.drive(ctx, f, false)
	f.Stop()
	if err != nil {
		return Result{}, err
	}
	r := Result{metrics: E2E(b.wl, p, times), extra: Extra(b.wl, p)}
	r.check(b.graphs, b.s, p)
	return r, nil
}

// traced is the per-layer run: an untraced pass for the overhead
// baseline, a traced pass with /metrics scraped around it, then the
// in-process replay of what the traced pass sent.
func (b *bench) traced(ctx context.Context) (Result, error) {
	f, err := b.fleet(ctx)
	if err != nil {
		return Result{}, err
	}
	untraced, err := b.drive(ctx, f, false)
	f.Stop()
	if err != nil {
		return Result{}, err
	}

	if f, err = b.fleet(ctx); err != nil {
		return Result{}, err
	}
	var d delta
	if d.before, err = f.Scrape(ctx); err != nil {
		f.Stop()
		return Result{}, err
	}
	traced, err := b.drive(ctx, f, true)
	if err == nil {
		d.after, err = f.Scrape(ctx)
	}
	f.Stop()
	if err != nil {
		return Result{}, err
	}

	var r Result
	r.check(b.graphs, b.s, untraced)
	r.check(b.graphs, b.s, traced)
	rr := Replay(b.graphs, b.s, len(traced.Recs))
	r.metrics = Layers(b.wl, untraced, traced, d, rr)
	return r, nil
}

// check counts the pass's operations and checks every answer it got
// against the oracle, keeping the first wrong one.
func (r *Result) check(graphs []*graph.Graph, s *Stream, p Pass) {
	o := NewOracle(graphs, s)
	var mutSent, mutAcked []time.Duration
	for i := range p.Recs {
		if rec := &p.Recs[i]; rec.Kind == OpMutate {
			// A mutation that failed may never have got a connection;
			// count it as sent from when it was issued.
			mutSent = append(mutSent, max(rec.Sent, rec.Issued))
			if rec.Err == nil {
				mutAcked = append(mutAcked, rec.Done)
			}
		}
	}
	for i := range p.Recs {
		rec := &p.Recs[i]
		r.attempted++
		if rec.Err != nil {
			if r.failed++; r.failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, rec.Err)
			}
			continue
		}
		if r.wrong != nil || s.Ops[i].Kind == OpMutate {
			continue
		}
		// Epochs possibly live while the read was in flight: every
		// mutation acknowledged before it was sent is applied, none sent
		// after it was answered is.
		lo, hi := countBefore(mutAcked, rec.Sent), countBefore(mutSent, rec.Done)
		for k, qi := range s.Ops[i].Queries {
			if err := o.Check(i, qi, rec.Results[k].Answer, lo, hi); err != nil {
				r.wrong = err
				break
			}
		}
	}
}

// countBefore counts the times ts that fall before t.
func countBefore(ts []time.Duration, t time.Duration) int {
	n := 0
	for _, x := range ts {
		if x < t {
			n++
		}
	}
	return n
}
