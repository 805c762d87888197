// Command e2ebench is the repository's end-to-end benchmark. In one
// process it deploys the real query path — graphio snapshot →
// live.Runtime with the auction scheduler → service.Server — and
// drives it over loopback TCP with service.Client callers in a closed
// loop, then checks every reply against the traverse kernels run on
// the same query outside the runtime.
//
// A run is a series of episodes, each a fresh deployment measured for
// one short window. With --trace 0 it prints the end-to-end metrics,
// medians over the episodes; with --trace 1 it runs the same workload
// untraced and traced and prints the per-layer budget, writing its
// spans to the work directory. The last line of standard output is one
// JSON object with the run's verdict and metrics. See NOTES.md for the
// workloads, the metric definitions and the known defects the figures
// show.
//
// Usage (run.sh builds the binary and prepares the snapshot first):
//
//	e2ebench --workload interactive --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// warmupQueries is how many queries each deployment serves before its
// measured window, from cold buffers: they fill the buffers and the
// signature table, and they are what disk_reads_per_query counts.
const warmupQueries = 1000

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	dir      string
}

func main() {
	var (
		o        options
		seconds  int
		trace    int
		doPrep   bool
		maxProcs = 2
	)
	flag.StringVar(&o.workload, "workload", "interactive", "workload to run: interactive, saturated or shared-disk")
	flag.Uint64Var(&o.seed, "seed", 1, "query-stream seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer budget instead of the end-to-end metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build/e2ebench", "work directory for the graph snapshot and span files")
	flag.BoolVar(&doPrep, "prepare", false, "only write the graph snapshot into the work directory")
	flag.Parse()

	if doPrep {
		if err := prepareSnapshot(o.dir); err != nil {
			fatal(err)
		}
		return
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatal(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	w, err := findWorkload(o.workload)
	if err != nil {
		fatal(err)
	}
	if n := runtime.NumCPU(); n < maxProcs {
		maxProcs = n
	}
	runtime.GOMAXPROCS(maxProcs)

	run := runEndToEnd
	if o.trace {
		run = runTraced
	}
	rep, err := run(o, w)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("e2ebench: workload=%s seed=%d trace=%d window=%v callers=%d\n",
		w.name, o.seed, trace, o.seconds, w.callers())
	for _, line := range rep.notes {
		fmt.Println("  " + line)
	}
	for _, m := range rep.metrics {
		fmt.Printf("  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if err := rep.writeJSON(os.Stdout); err != nil {
		fatal(err)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

type metric struct {
	name, unit string
	value      float64
}

// report is one run's verdict, metrics and human-readable notes.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	notes             []string
}

func (r *report) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count folds episode e's verified window into the verdict and notes
// its figures, outcomes, lifecycle balance and the units that served it.
func (r *report) count(e int, win *window, wrong int) {
	t := win.tally()
	r.attempted += t.attempted()
	r.failed += t.failed()
	if wrong > 0 || !win.conserved() {
		r.correct = false
	}
	lat := win.latenciesMs()
	submitted, completed, rejected, timedOut := win.lifecycle()
	r.note("episode %d: %.1f q/s p50 %.3f ms p99 %.3f ms cpu %.2f/%d; per unit %v; %v; wrong=%d; submitted=%.0f completed=%.0f rejected=%.0f timed_out=%.0f conserved=%t",
		e, win.throughput(), percentile(lat, 50), percentile(lat, 99),
		win.cpu.Seconds()/win.elapsed.Seconds(), runtime.GOMAXPROCS(0), win.perUnit(), t, wrong,
		submitted, completed, rejected, timedOut, win.conserved())
}

// writeJSON prints the result line the benchmark contract asks for.
func (r *report) writeJSON(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// runEndToEnd measures the end-to-end metrics with tracing off. Each
// figure is the median over the run's episodes, so a burst of host
// noise that slows a few episodes does not move it; set-up is the
// median of one set-up per episode, and peak memory the run's peak.
func runEndToEnd(o options, w workload) (*report, error) {
	rep := &report{correct: true}
	var (
		total                                tally
		pooled, qps, p50, p99, cpu, disk, su []float64
		peak                                 float64
	)
	for e := 0; e < episodes(o.seconds); e++ {
		win, setup, wrong, err := runEpisode(snapshotPath(o.dir), w, episodeSeed(o.seed, e), 0, episodeWindow, nil)
		if err != nil {
			return nil, err
		}
		rep.count(e, win, wrong)
		t := win.tally()
		for i := range total {
			total[i] += t[i]
		}
		lat := win.latenciesMs()
		pooled = append(pooled, lat...)
		qps = append(qps, win.throughput())
		p50 = append(p50, percentile(lat, 50))
		p99 = append(p99, percentile(lat, 99))
		cpu = append(cpu, ratio(win.cpu.Seconds()*1e6, win.completedQueries()))
		disk = append(disk, win.coldReadsPerQuery())
		su = append(su, setup.Seconds())
		peak = max(peak, win.peakRSS)
	}
	pct, tailMs := tail(sortedCopy(pooled))
	rep.note("all episodes: %v; error_rate=%g ratio; latency samples=%d, pooled tail p%g=%.4f ms",
		total, total.errorRate(), len(pooled), pct, tailMs)
	rep.add("throughput_qps", "q/s", median(qps))
	rep.add("latency_p50_ms", "ms", median(p50))
	rep.add("latency_p99_ms", "ms", median(p99))
	rep.add("success_ratio", "ratio", 1-total.errorRate())
	rep.add("cpu_us_per_query", "us", median(cpu))
	rep.add("disk_reads_per_query", "count", median(disk))
	rep.add("setup_s", "s", median(su))
	rep.add("peak_rss_mb", "MiB", peak)
	return rep, nil
}
