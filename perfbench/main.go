// Command perfbench is the repository's benchmark: one process that runs
// one named workload for a fixed wall time, checks the program's
// outputs, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With -trace 0 the metrics are the end-to-end set (no instrumentation
// in the measured path); with -trace 1 they are the per-layer set, taken
// by timing calls into each module's public seams from this package's
// own wrappers. See README.md for the workloads and every metric.
//
//	go run . -workload sim-paper -seed 1 -seconds 10 -trace 0
//
// The exit status is non-zero when a workload cannot run or an output
// check fails; the JSON line is still printed in the second case.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is the -trace 0 metric set, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"epochs_per_s", "1/s"},
	{"epoch_ms_p50", "ms"},
	{"epoch_ms_p95", "ms"},
	{"lifecycle_ms_p50", "ms"},
	{"create_ms_p50", "ms"},
	{"retarget_ms_p50", "ms"},
	{"retarget_ms_p95", "ms"},
	{"max_rss_mb", "MB"},
	{"norm_perf", "ratio"},
}

// perLayer is the -trace 1 metric set. A layer a workload never calls
// reports 0 there.
var perLayer = []metricDef{
	{"sim.profile_ms", "ms"},
	{"sim.finish_ms", "ms"},
	{"sim.apply_us", "us"},
	{"sim.host_ns_per_mem_request", "ns"},
	{"sim.host_ns_per_kinstr", "ns"},
	{"cpusim.kinstr_per_epoch", "count"},
	{"cpusim.misses_per_epoch", "count"},
	{"memsim.requests_per_epoch", "count"},
	{"memsim.row_hit_ratio", "ratio"},
	{"memsim.queue_len_mean", "count"},
	{"memsim.bus_util", "ratio"},
	{"policy.decide_us", "us"},
	{"policy.cap_overshoot_pct", "%"},
	{"policy.perf_spread", "ratio"},
	{"power.model_err_pct", "%"},
	{"qmodel.resp_err_pct", "%"},
	{"runner.self_us", "us"},
	{"runner.alloc_kb_per_epoch", "KB"},
	{"cluster.rebalance_us", "us"},
	{"cluster.self_ms", "ms"},
	{"cluster.alloc_kb_per_epoch", "KB"},
	{"cluster.granted_frac", "ratio"},
	{"cluster.slo_events", "count"},
	{"dist.recv_ms", "ms"},
	{"dist.msgs_per_epoch", "count"},
	{"dist.wire_kb_per_epoch", "KB"},
	{"dist.encode_us", "us"},
	{"dist.decode_us", "us"},
	{"dist.alloc_kb_per_epoch", "KB"},
	{"serve.step_ms", "ms"},
	{"serve.wait_ms_per_epoch", "ms"},
	{"serve.manager_create_us", "us"},
	{"serve.manager_setbudget_us", "us"},
	{"serve.manager_close_us", "us"},
	{"runtime.sched_latency_ms_p95", "ms"},
	{"http.stream_bytes_per_epoch", "count"},
	{"metrics.scrape_ms", "ms"},
	{"metrics.scrape_kb", "KB"},
	{"trace.epochs_per_s", "1/s"},
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// fastcapd is the daemon binary serve-http launches.
	fastcapd string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"sim-paper":    runSimPaper,
	"fleet-replay": runFleetReplay,
	"fleet-dist":   runFleetDist,
	"serve-http":   runServeHTTP,
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: sim-paper, fleet-replay, fleet-dist or serve-http")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "measured wall time")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics from an instrumented run")
		fastcapd = flag.String("fastcapd", "", "fastcapd binary for serve-http")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, fastcapd: *fastcapd}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := res.print(os.Stdout, defs); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// result collects one run's accounting and metric values.
type result struct {
	attempted int
	failed    int
	// checkFailures lists every failed output check; any entry makes
	// the run incorrect.
	checkFailures []string
	values        map[string]float64
}

func newResult() *result { return &result{values: map[string]float64{}} }

// op accounts one attempted operation; a non-nil err marks it failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail accounts a failure of an operation already counted as attempted.
func (r *result) fail(err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// check records an output check; a false ok fails the run.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.checkFailures = append(r.checkFailures, msg)
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) correct() bool { return len(r.checkFailures) == 0 && r.failed == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes one human-readable line per metric, then the JSON
// result line. A metric the workload did not set is a benchmark bug.
func (r *result) print(f *os.File, defs []metricDef) error {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed + len(r.checkFailures), map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured (%v)", d.name, v)
		}
		fmt.Fprintf(f, "%-30s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	fmt.Fprintf(f, "attempted %d, failed %d, checks failed %d\n", r.attempted, r.failed, len(r.checkFailures))
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 3

// timedSetup runs setup setupReps times, records the median duration as
// setup_s, and returns the last set-up's state.
func timedSetup[T any](r *result, setup func() (T, error), release func(T)) (T, error) {
	var (
		last T
		durs []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		st, err := setup()
		if err != nil {
			if i > 0 && release != nil {
				release(last)
			}
			return st, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		if i > 0 && release != nil {
			release(last)
		}
		last = st
	}
	r.set("setup_s", median(durs))
	return last, nil
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// msSamples converts durations to milliseconds.
type msSamples []float64

func (s *msSamples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// measureWindows is how many equal wall-time windows a measured period
// is split into. Throughput and epoch-scale latencies are computed per
// window and reported as the median across windows, so a burst of
// contention from other tenants of the host that spans less than half
// the windows does not move them.
const measureWindows = 5

// timeline holds timestamped samples over one measured period.
type timeline struct {
	start, end time.Time
	at         []time.Time
	v          []float64
}

func newTimeline(start time.Time) *timeline { return &timeline{start: start, end: start} }

// add records value v at time t.
func (tl *timeline) add(t time.Time, v float64) {
	tl.at = append(tl.at, t)
	tl.v = append(tl.v, v)
	if t.After(tl.end) {
		tl.end = t
	}
}

// merge adds every sample of o.
func (tl *timeline) merge(o *timeline) {
	for i, t := range o.at {
		tl.add(t, o.v[i])
	}
}

// addDur records a latency in milliseconds, stamped at its end.
func (tl *timeline) addDur(end time.Time, d time.Duration) { tl.add(end, float64(d)/1e6) }

// windows buckets the samples into measureWindows equal windows.
func (tl *timeline) windows() (buckets [][]float64, width time.Duration) {
	width = tl.end.Sub(tl.start) / measureWindows
	buckets = make([][]float64, measureWindows)
	for i, t := range tl.at {
		w := 0
		if width > 0 {
			w = int(t.Sub(tl.start) / width)
		}
		if w >= measureWindows {
			w = measureWindows - 1
		}
		buckets[w] = append(buckets[w], tl.v[i])
	}
	return buckets, width
}

// percentile is the median across windows of each window's p-th
// percentile.
func (tl *timeline) percentile(p float64) float64 {
	buckets, _ := tl.windows()
	var per []float64
	for _, b := range buckets {
		if len(b) > 0 {
			per = append(per, stats.Percentile(b, p))
		}
	}
	return median(per)
}

// rate is the median across windows of the summed values per second.
func (tl *timeline) rate() float64 {
	buckets, width := tl.windows()
	if width <= 0 {
		return 0
	}
	var per []float64
	for _, b := range buckets {
		sum := 0.0
		for _, v := range b {
			sum += v
		}
		per = append(per, sum/width.Seconds())
	}
	return median(per)
}

// setWindowed records name_p50 and name_p95 from a latency timeline.
func (r *result) setWindowed(name string, tl *timeline) {
	r.set(name+"_p50", tl.percentile(50))
	r.set(name+"_p95", tl.percentile(95))
}

// mix64 derives a well-spread 63-bit value from the run seed and a
// stream index (splitmix64), so every generated input follows from the
// seed argument alone.
func mix64(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}
