package main

import (
	"math"
	"slices"
	"time"
)

// Metric is one named, measured value.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Pass is one served run of a workload on one fleet.
type Pass struct {
	Recs    []Record
	CPU     time.Duration // daemons' CPU time over the run
	PeakRSS int64         // summed daemon VmHWM at the end, bytes
}

// readStats summarises a pass's reads.
type readStats struct {
	latMS     []float64 // per answered read operation
	queries   int       // queries answered
	goodput   int       // queries answered within the latency limit
	hits      int       // queries with an exact hit, empty shortcut, container or containee
	subiso    int
	failed    int
	attempted int
	mutLatMS  []float64
	elapsed   time.Duration // until the last answer
	lagMS     []float64     // generator lag of reads
}

func summarise(p Pass, limit time.Duration) readStats {
	var st readStats
	for i := range p.Recs {
		r := &p.Recs[i]
		st.attempted++
		st.elapsed = max(st.elapsed, r.Done)
		if r.Kind != OpMutate {
			st.lagMS = append(st.lagMS, ms(r.Lag()))
		}
		if r.Err != nil {
			st.failed++
			continue
		}
		if r.Kind == OpMutate {
			st.mutLatMS = append(st.mutLatMS, ms(r.Latency()))
			continue
		}
		st.latMS = append(st.latMS, ms(r.Latency()))
		for _, res := range r.Results {
			st.queries++
			if r.Latency() <= limit {
				st.goodput++
			}
			qs := res.Stats
			if qs.ExactHit || qs.EmptyShortcut || qs.Containers > 0 || qs.Containees > 0 {
				st.hits++
			}
			st.subiso += qs.SubIsoTests
		}
	}
	return st
}

// E2E computes the bounded end-to-end metrics of an untraced pass:
// those that hold steady from seed to seed on every workload. setups
// are the fleet set-up times measured in the run.
func E2E(wl *Workload, p Pass, setups []time.Duration) []Metric {
	st := summarise(p, wl.Limit)
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.Seconds())
	}
	secs := st.elapsed.Seconds()
	q := float64(st.queries)
	return []Metric{
		{"setup_s", "s", quantile(setupS, 0.5)},
		{"read_p50_ms", "ms", quantile(st.latMS, 0.5)},
		{"queries_per_s", "1/s", ratio(q, secs)},
		{"goodput_qps", "1/s", ratio(float64(st.goodput), secs)},
		{"cpu_ms_per_query", "ms", ratio(ms(p.CPU), q)},
		{"rss_mb", "MB", float64(p.PeakRSS) / (1 << 20)},
	}
}

// Extra is the end-to-end figures too seed-dependent to bound on some
// workload, or that exist only on some workloads: the latency tail (p99
// of single queries, p90 of batches — the highest quantile with ten
// samples beyond it), the hit share, sub-iso tests per query, the error
// share and mutation latency.
func Extra(wl *Workload, p Pass) []Metric {
	st := summarise(p, wl.Limit)
	return []Metric{
		{"read_tail_ms", "ms", quantile(st.latMS, wl.Tail)},
		{"hit_frac", "ratio", ratio(float64(st.hits), float64(st.queries))},
		{"subiso_per_query", "count", ratio(float64(st.subiso), float64(st.queries))},
		{"error_frac", "ratio", ratio(float64(st.failed), float64(st.attempted))},
		{"mutate_p50_ms", "ms", quantile(st.mutLatMS, 0.5)},
		{"mutate_p95_ms", "ms", quantile(st.mutLatMS, 0.95)},
	}
}
