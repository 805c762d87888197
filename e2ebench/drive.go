package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"subtrav/internal/service"
)

// sample is one request of a measured window: the stream position of
// its query (the query itself is regenerated from the seed when it is
// verified), how it resolved, and a digest of the result that came
// back. Keeping the digest rather than the reply keeps the benchmark's
// own memory out of the peak-memory figure: a collaborative-filtering
// reply carries tens of kilobytes of recommendations.
type sample struct {
	idx    int64
	out    outcome
	sendNs int64 // wall clock at send, unix nanos
	latNs  int64 // client send to reply
	unit   int32
	waitNs int64 // Reply.WaitNanos
	execNs int64 // Reply.ExecNanos
	digest uint64
}

// drive runs the closed loop: each of the workload's callers sends its
// next query as soon as its previous reply arrives, until dur has
// passed or, when limit > 0, limit queries have been sent. It returns
// once every caller has its last reply, with the time that took;
// keep=false discards the samples (warm-up).
func drive(d *deployment, st *stream, w workload, dur time.Duration, limit int64, keep bool) ([]sample, time.Duration, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		all      []sample
		firstErr error
		sent     atomic.Int64
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.conns; c++ {
		client := d.clients[c]
		for k := 0; k < w.perConn; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var mine []sample
				var err error
				for time.Now().Before(deadline) && (limit <= 0 || sent.Add(1) <= limit) {
					var idx int64
					var q service.WireQuery
					if idx, q, err = st.next(); err != nil {
						break
					}
					t0 := time.Now()
					reply, rerr := client.Do(q)
					lat := time.Since(t0)
					d.firstReply.CompareAndSwap(0, t0.Add(lat).UnixNano())
					if !keep {
						continue
					}
					mine = append(mine, sample{
						idx: idx, out: classify(reply, rerr),
						sendNs: t0.UnixNano(), latNs: lat.Nanoseconds(),
						unit: reply.Unit, waitNs: reply.WaitNanos, execNs: reply.ExecNanos,
						digest: replyDigest(reply),
					})
				}
				mu.Lock()
				all = append(all, mine...)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return all, time.Since(start), firstErr
}

// window is what one measured window observed.
type window struct {
	samples []sample
	elapsed time.Duration
	cpu     time.Duration
	peakRSS float64 // MiB, read as the window closed
	prom    promDiff
	// life is the registry at quiescence after the window: totals
	// since the deployment started with cold buffers.
	life promSnapshot
	// coldReads is the shared-disk fetches of the warm-up queries.
	coldReads float64
}

// scrape parses the runtime's registry.
func scrape(d *deployment) (promSnapshot, error) {
	var b strings.Builder
	if err := d.rt.Registry().WritePrometheus(&b); err != nil {
		return promSnapshot{}, err
	}
	return parseProm(b.String())
}

// measure warms the deployment up with warmupQueries queries, then
// drives one measured window of dur, diffing the registry and the
// process CPU clock across it.
func measure(d *deployment, st *stream, w workload, dur time.Duration) (*window, error) {
	if _, _, err := drive(d, st, w, time.Hour, warmupQueries, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	before, err := scrape(d)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	// Start the window from a collected heap, so the peak-memory
	// figure does not depend on where warm-up left the GC cycle.
	runtime.GC()
	samples, elapsed, err := drive(d, st, w, dur, 0, true)
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	after, err := scrape(d)
	if err != nil {
		return nil, err
	}
	return &window{
		samples:   samples,
		elapsed:   elapsed,
		cpu:       cpu1 - cpu0,
		peakRSS:   rss,
		prom:      diffProm(before, after),
		life:      after,
		coldReads: diskReads(before),
	}, nil
}

// lifecycle returns the deployment's lifetime query counters.
func (win *window) lifecycle() (submitted, completed, rejected, timedOut float64) {
	v := win.life.values
	return v["subtrav_queries_submitted_total"], v["subtrav_queries_completed_total"],
		v["subtrav_queries_rejected_total"], v["subtrav_queries_timed_out_total"]
}

// conserved checks submitted = completed + rejected + timed-out at
// quiescence: every admitted query resolved exactly once.
func (win *window) conserved() bool {
	submitted, completed, rejected, timedOut := win.lifecycle()
	return submitted == completed+rejected+timedOut
}

// tally counts the window's outcomes (after verification).
func (win *window) tally() tally {
	var t tally
	for _, s := range win.samples {
		t[s.out]++
	}
	return t
}

// throughput is the window's verified-correct replies per second.
func (win *window) throughput() float64 {
	return float64(win.tally()[outcomeOK]) / win.elapsed.Seconds()
}

// latenciesMs are the client latencies of the window's correct
// replies, sorted, in milliseconds.
func (win *window) latenciesMs() []float64 {
	var xs []float64
	for _, s := range win.samples {
		if s.out == outcomeOK {
			xs = append(xs, float64(s.latNs)/1e6)
		}
	}
	return sortedCopy(xs)
}

// completedQueries is the number of queries the runtime completed in
// the window.
func (win *window) completedQueries() float64 {
	return win.prom.value("subtrav_queries_completed_total")
}

// diskReads is a registry's shared-disk fetches since the deployment
// started: buffer misses less the misses that joined another unit's
// in-flight fetch.
func diskReads(life promSnapshot) float64 {
	total := diffProm(promSnapshot{}, life)
	return total.sum("subtrav_unit_cache_misses_total") - total.value("subtrav_disk_coalesced_reads_total")
}

// coldReadsPerQuery is the shared-disk fetches per query over the
// warm-up, whose fixed count of queries starts from cold buffers. A
// workload whose graph fits in every buffer reads only while the
// buffers fill, so its steady-state reads are a few late first
// touches, too few to measure; over a fixed count of queries from the
// cold start, reads per query are the steady cost of filling the
// buffers, independent of how many queries the window then completes.
// Where the buffers are small, steady-state misses dominate it.
func (win *window) coldReadsPerQuery() float64 { return win.coldReads / warmupQueries }

// perUnit lists the queries each unit completed in the window.
func (win *window) perUnit() []float64 {
	out := make([]float64, numUnits)
	for u := range out {
		out[u] = win.prom.value(fmt.Sprintf("subtrav_unit_completed_total{unit=%q}", fmt.Sprint(u)))
	}
	return out
}
