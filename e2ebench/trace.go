package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"subtrav/internal/graphio"
	"subtrav/internal/obs"
	"subtrav/internal/service"
)

// ringCap is the runtime's span ring in the traced run: larger than
// the queries a traced window completes at this benchmark's rates, so
// every request finds its runtime span.
const ringCap = 1 << 17

// statsProbes is how many Client.Stats round trips are timed.
const statsProbes = 200

// span is one interval of the traced run. Spans of one request share
// its query's stream position; parent 0 marks a root.
type span struct {
	id, parent int64
	query      int64
	name       string
	start, end int64 // unix nanos
}

// tracer keeps the run's spans in memory until the run ends.
type tracer struct{ spans []span }

func (t *tracer) add(parent, query int64, name string, start, end int64) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, query: query, name: name, start: start, end: end})
	return id
}

// write stores the spans as CSV.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "span,parent,query,name,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.query, s.name, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// joinKey matches a reply to the runtime span of the same query: both
// carry the unit and the exact wait and execution durations.
type joinKey struct {
	unit           int32
	waitNs, execNs int64
}

// openRepeats is how many times the traced run times OpenCSRFile.
const openRepeats = 5

// runTraced measures the per-layer budget. An untraced episode gives
// the baseline throughput and CPU per query; a traced episode of the
// same workload and seed gives the spans; replays of the traced
// window's queries time each layer's public functions. Each window is
// half of --seconds.
func runTraced(o options, w workload) (*report, error) {
	path := snapshotPath(o.dir)
	dur := max(episodeWindow, o.seconds/2)
	rep := &report{correct: true}

	plain, _, wrong, err := runEpisode(path, w, o.seed, 0, dur, nil)
	if err != nil {
		return nil, err
	}
	rep.count(0, plain, wrong)

	var tr tracer
	traced, _, wrong, err := runEpisode(path, w, o.seed, ringCap, dur, func(d *deployment, win *window) error {
		return layerBudget(rep, &tr, d, win, o, w, plain)
	})
	if err != nil {
		return nil, err
	}
	rep.count(1, traced, wrong)
	rep.add("trace.overhead_ratio", "ratio", ratio(traced.throughput(), plain.throughput()))

	opens := make([]float64, openRepeats)
	for i := range opens {
		t0 := time.Now()
		m, err := graphio.OpenCSRFile(path)
		if err != nil {
			return nil, err
		}
		opens[i] = time.Since(t0).Seconds() * 1e3
		if err := m.Close(); err != nil {
			return nil, err
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	rep.add("graphio.open_ms", "ms", median(opens))
	rep.add("graphio.snapshot_mb", "MiB", float64(st.Size())/(1<<20))

	spanPath := filepath.Join(o.dir, fmt.Sprintf("spans-%s-seed%d.csv", w.name, o.seed))
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	rep.note("spans: %d written to %s", len(tr.spans), spanPath)
	return rep, nil
}

// layerBudget derives the per-layer metrics of a traced window while
// its deployment is still up: the request spans, a Stats round trip,
// the registry diff and the layer replays. plain is the untraced
// window the CPU shares divide by.
func layerBudget(rep *report, tr *tracer, d *deployment, traced *window, o options, w workload, plain *window) error {
	g := d.mapped.Graph
	rtSpans := d.rt.Trace(ringCap)
	rtt, err := statsRTT(d.clients[0])
	if err != nil {
		return err
	}
	budget := clientBudget(tr, traced.samples, rtSpans)
	if budget.violations > 0 {
		rep.correct = false
	}
	rep.note("traced requests=%d joined to runtime spans=%d budget violations=%d",
		budget.requests, budget.joined, budget.violations)

	var ok []sample
	for _, s := range traced.samples {
		if s.out == outcomeOK {
			ok = append(ok, s)
		}
	}
	if len(ok) > replayQueries {
		ok = ok[:replayQueries]
	}
	positions := make([]int64, len(ok))
	for i, s := range ok {
		positions[i] = s.idx
	}
	queries, err := queriesAt(w, o.seed, g.NumVertices(), positions)
	if err != nil {
		return err
	}
	rp, err := replay(tr, g, w, queries, ok)
	if err != nil {
		return err
	}
	rep.note("replayed queries=%d", rp.queries)

	p := traced.prom
	completed := traced.completedQueries()
	cpuUs := ratio(plain.cpu.Seconds()*1e6, plain.completedQueries())
	hits := p.sum("subtrav_unit_cache_hits_total")
	misses := p.sum("subtrav_unit_cache_misses_total")
	push, pull := p.value("subtrav_traverse_push_waves_total"), p.value("subtrav_traverse_pull_waves_total")
	auctioned := p.value("subtrav_sched_auctioned_total")
	followed := p.value("subtrav_sched_followed_affinity_total")
	emptyRows := p.value("subtrav_sched_empty_row_total")
	traverseUs := rp.kernelUs()
	if w.batch > 1 {
		traverseUs = rp.batchUs()
	}

	rep.add("service.outside_runtime_us", "us", median(budget.outsideUs))
	rep.add("service.stats_rtt_us", "us", rtt)
	rep.add("service.codec_us_per_query", "us", rp.codecUs())
	rep.add("service.reply_bytes_per_query", "bytes", ratio(float64(rp.replyBytes), float64(rp.queries)))
	rep.add("live.wait_us", "us", median(budget.waitUs))
	rep.add("live.exec_us", "us", median(budget.execUs))
	rep.add("live.pending_us", "us", median(budget.pendingUs))
	rep.add("live.queue_us_p99", "us", percentile(sortedCopy(budget.queueUs), 99))
	rep.add("live.imbalance_mean", "ratio", ratio(budget.imbalanceSum, float64(budget.joined)))
	rep.add("live.queue_len_max", "count", float64(budget.queueLenMax))
	rep.add("sched.round_us", "us", p.quantile("subtrav_sched_round_nanos", 0.5)/1e3)
	rep.add("sched.tasks_per_round", "count", ratio(completed, p.value("subtrav_sched_rounds_total")))
	rep.add("sched.assign_us_per_task", "us", rp.assignUs())
	rep.add("sched.affinity_hit_ratio", "ratio",
		ratio(p.value("subtrav_sched_affinity_hits_total"), p.value("subtrav_sched_affinity_eligible_total")))
	rep.add("sched.fell_back_ratio", "ratio", ratio(followed, auctioned+followed+emptyRows))
	rep.add("signature.record_ns_per_vertex", "ns", rp.recordNs())
	rep.add("traverse.kernel_us_per_query", "us", rp.kernelUs())
	rep.add("traverse.batch_us_per_query", "us", rp.batchUs())
	rep.add("traverse.accesses_per_query", "count", ratio(float64(rp.accesses), float64(rp.queries)))
	rep.add("traverse.pull_wave_ratio", "ratio", ratio(pull, push+pull))
	rep.add("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	rep.add("cache.evictions_per_query", "count", ratio(p.sum("subtrav_unit_cache_evictions_total"), completed))
	rep.add("cache.access_ns", "ns", rp.accessNs())
	rep.add("storage.coalesced_ratio", "ratio", ratio(p.value("subtrav_disk_coalesced_reads_total"), misses))
	rep.add("storage.disk_wait_us_p99", "us", p.quantile("subtrav_disk_wait_nanos", 0.99)/1e3)
	rep.add("service.cpu_share", "ratio", ratio(rp.codecUs(), cpuUs))
	rep.add("sched.cpu_share", "ratio", ratio(rp.assignUs(), cpuUs))
	rep.add("signature.cpu_share", "ratio", ratio(rp.recordNs()*ratio(float64(rp.touched), float64(rp.queries))/1e3, cpuUs))
	rep.add("traverse.cpu_share", "ratio", ratio(traverseUs, cpuUs))
	rep.add("cache.cpu_share", "ratio", ratio(rp.accessNs()*ratio(float64(rp.accesses), float64(rp.queries))/1e3, cpuUs))
	return nil
}

// budget is the per-request split of client latency into the service
// layer (outside the runtime) and the runtime's wait and execution.
type budget struct {
	requests, joined, violations int
	outsideUs, waitUs, execUs    []float64
	pendingUs, queueUs           []float64
	imbalanceSum                 float64
	queueLenMax                  int
}

// clientBudget records, for each correct reply, a client span with a
// live child of Wait + Exec, itself split into wait and exec children;
// where the runtime's span of the same query is in the ring, the wait
// is split further into pending (batch window and pending pool) and
// queue (unit queue). The service layer's self time is the client span
// less its live child; a negative one would mean the runtime's clock
// read more time than the client's, and counts as a violation.
func clientBudget(tr *tracer, samples []sample, rtSpans []obs.Span) budget {
	byKey := make(map[joinKey]obs.Span, len(rtSpans))
	for _, s := range rtSpans {
		if s.Outcome == obs.OutcomeCompleted {
			byKey[joinKey{s.Unit, s.WaitNanos, s.ExecNanos}] = s
		}
	}
	var b budget
	for _, s := range samples {
		if s.out != outcomeOK {
			continue
		}
		b.requests++
		outside := s.latNs - s.waitNs - s.execNs
		if outside < 0 {
			b.violations++
		}
		b.outsideUs = append(b.outsideUs, float64(outside)/1e3)
		b.waitUs = append(b.waitUs, float64(s.waitNs)/1e3)
		b.execUs = append(b.execUs, float64(s.execNs)/1e3)

		client := tr.add(0, s.idx, "client", s.sendNs, s.sendNs+s.latNs)
		rs, joined := byKey[joinKey{s.unit, s.waitNs, s.execNs}]
		// Without its runtime span, the live span is centred in the
		// client span: its length is known, its offset is not.
		liveStart := s.sendNs + outside/2
		if joined {
			liveStart = rs.SubmitNanos
		}
		live := tr.add(client, s.idx, "live", liveStart, liveStart+s.waitNs+s.execNs)
		wait := tr.add(live, s.idx, "live.wait", liveStart, liveStart+s.waitNs)
		tr.add(live, s.idx, "live.exec", liveStart+s.waitNs, liveStart+s.waitNs+s.execNs)
		if !joined {
			continue
		}
		b.joined++
		tr.add(wait, s.idx, "live.pending", rs.SubmitNanos, rs.ScheduleNanos)
		tr.add(wait, s.idx, "live.queue", rs.ScheduleNanos, rs.StartNanos)
		b.pendingUs = append(b.pendingUs, float64(rs.ScheduleNanos-rs.SubmitNanos)/1e3)
		b.queueUs = append(b.queueUs, float64(rs.StartNanos-rs.ScheduleNanos)/1e3)
		b.imbalanceSum += rs.Imbalance
		if rs.QueueLen > b.queueLenMax {
			b.queueLenMax = rs.QueueLen
		}
	}
	return b
}

// statsRTT is the median round trip of a Stats request on a quiet
// connection, in microseconds: the codec and TCP with no traversal.
func statsRTT(c *service.Client) (float64, error) {
	rtts := make([]float64, 0, statsProbes)
	for i := 0; i < statsProbes; i++ {
		t0 := nowNanos()
		if _, err := c.Stats(); err != nil {
			return 0, fmt.Errorf("stats round trip: %w", err)
		}
		rtts = append(rtts, float64(nowNanos()-t0)/1e3)
	}
	return median(rtts), nil
}
