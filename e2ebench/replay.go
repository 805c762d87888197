package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/cache"
	"subtrav/internal/graph"
	"subtrav/internal/sched"
	"subtrav/internal/service"
	"subtrav/internal/signature"
	"subtrav/internal/traverse"
)

// replayQueries bounds how many of a traced window's queries the
// layer replays cover.
const replayQueries = 4096

// roundTasks is the size of a replayed scheduling round: the runtime
// places at most one task per unit per auction.
const roundTasks = numUnits

func nowNanos() int64 { return time.Now().UnixNano() }

// replayStats are the totals of the layer replays.
type replayStats struct {
	queries, accesses, touched int

	kernelNs, codecNs, assignNs, sigNs, cacheNs int64
	batchNs                                     int64
	batched, assigned, replyBytes               int
}

func (r *replayStats) kernelUs() float64 { return ratio(float64(r.kernelNs)/1e3, float64(r.queries)) }
func (r *replayStats) batchUs() float64  { return ratio(float64(r.batchNs)/1e3, float64(r.batched)) }
func (r *replayStats) codecUs() float64  { return ratio(float64(r.codecNs)/1e3, float64(r.queries)) }
func (r *replayStats) assignUs() float64 { return ratio(float64(r.assignNs)/1e3, float64(r.assigned)) }
func (r *replayStats) recordNs() float64 { return ratio(float64(r.sigNs), float64(r.touched)) }
func (r *replayStats) accessNs() float64 { return ratio(float64(r.cacheNs), float64(r.accesses)) }

// replayUnit is a scheduler view of an idle unit with the workload's
// buffer budget.
type replayUnit struct{ budget int64 }

func (replayUnit) QueueLen() int            { return 0 }
func (replayUnit) Busy() bool               { return false }
func (replayUnit) CompletedSince(int64) int { return 0 }
func (u replayUnit) MemoryBudget() int64    { return u.budget }

var _ sched.UnitState = replayUnit{}

// replay times each layer's public functions on the traced window's
// queries, in stream order, recording a span per call that carries
// the stream position of the query it replays:
//
//   - sched: Auction.Assign on rounds of roundTasks queries, with a
//     signature table warmed by the traces of the queries before them;
//   - traverse: ExecuteIn on one reused Workspace per query, and
//     Batch.Run on runs of up to MaxBatch consecutive batchable queries;
//   - cache: Cache.Access over each trace, on a buffer per unit of the
//     workload's budget, each query on the unit that served it;
//   - signature: Table.Record of each trace's touched vertices;
//   - service: gob encoding and decoding of each Request and Reply.
func replay(tr *tracer, g *graph.Graph, w workload, wire []service.WireQuery, ss []sample) (*replayStats, error) {
	queries := make([]traverse.Query, len(wire))
	for i, wq := range wire {
		q, err := wq.ToQuery()
		if err != nil {
			return nil, err
		}
		queries[i] = q
	}
	rs := &replayStats{queries: len(queries)}

	sigs := signature.NewTable(0)
	scorer, err := affinity.NewScorer(g, sigs, signature.WallClock{}, affinity.DefaultConfig())
	if err != nil {
		return nil, err
	}
	auction, err := sched.NewAuction(scorer, sched.AuctionConfig{
		NumUnits: numUnits, Epsilon: auctionEpsilon, WorkloadAware: true,
	})
	if err != nil {
		return nil, err
	}
	units := make([]sched.UnitState, numUnits)
	buffers := make([]*cache.Cache, numUnits)
	for i := range units {
		units[i] = replayUnit{budget: w.memPerUnit}
		buffers[i] = cache.New(w.memPerUnit)
	}
	ws := traverse.NewWorkspace(g.NumVertices())
	replies := make([]service.Reply, len(queries))

	for lo := 0; lo < len(queries); lo += roundTasks {
		hi := min(lo+roundTasks, len(queries))
		tasks := make([]*sched.Task, 0, hi-lo)
		for i := lo; i < hi; i++ {
			tasks = append(tasks, &sched.Task{ID: ss[i].idx, Query: queries[i], Arrival: nowNanos()})
		}
		t0 := nowNanos()
		auction.Assign(tasks, units)
		t1 := nowNanos()
		tr.add(0, ss[lo].idx, "sched.assign", t0, t1)
		rs.assignNs += t1 - t0
		rs.assigned += len(tasks)

		for i := lo; i < hi; i++ {
			idx, unit := ss[i].idx, ss[i].unit
			if unit < 0 || int(unit) >= numUnits {
				return nil, fmt.Errorf("query %d: reply names unit %d", idx, unit)
			}
			t0 := nowNanos()
			result, trace, err := traverse.ExecuteIn(ws, g, queries[i])
			t1 := nowNanos()
			if err != nil {
				return nil, fmt.Errorf("query %d: %w", idx, err)
			}
			// Verification showed the served result equals this one.
			replies[i] = wireReply(result)
			replies[i].ID, replies[i].Unit = uint64(idx), unit
			replies[i].WaitNanos, replies[i].ExecNanos = ss[i].waitNs, ss[i].execNs
			tr.add(0, idx, "traverse.kernel", t0, t1)
			rs.kernelNs += t1 - t0

			buf := buffers[unit]
			t0 = nowNanos()
			for _, a := range trace.Accesses {
				buf.Access(cache.VertexKey(int32(a.Vertex)), int64(a.Bytes))
			}
			t1 = nowNanos()
			tr.add(0, idx, "cache.access", t0, t1)
			rs.cacheNs += t1 - t0
			rs.accesses += len(trace.Accesses)

			t0 = nowNanos()
			for _, v := range trace.Touched {
				sigs.Record(v, unit, t0)
			}
			t1 = nowNanos()
			tr.add(0, idx, "signature.record", t0, t1)
			rs.sigNs += t1 - t0
			rs.touched += len(trace.Touched)
		}
	}

	if err := replayBatches(tr, g, queries, ss, rs); err != nil {
		return nil, err
	}
	if err := replayCodec(tr, wire, replies, ss, rs); err != nil {
		return nil, err
	}
	return rs, nil
}

// replayBatches runs Batch.Run over runs of consecutive batchable
// queries, as a unit's worker drains them off its queue.
func replayBatches(tr *tracer, g *graph.Graph, queries []traverse.Query, ss []sample, rs *replayStats) error {
	batch := traverse.NewBatch(g.NumVertices())
	var run []traverse.Query
	first := int64(-1)
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		t0 := nowNanos()
		_, _, _, err := batch.Run(g, run)
		t1 := nowNanos()
		if err != nil {
			return fmt.Errorf("batch from query %d: %w", first, err)
		}
		tr.add(0, first, "traverse.batch", t0, t1)
		rs.batchNs += t1 - t0
		rs.batched += len(run)
		run = run[:0]
		return nil
	}
	for i, q := range queries {
		if !traverse.Batchable(q.Op) {
			if err := flush(); err != nil {
				return err
			}
			continue
		}
		if len(run) == 0 {
			first = ss[i].idx
		}
		run = append(run, q)
		if len(run) == traverse.MaxBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// replayCodec gob-encodes every Request and Reply onto one stream each,
// as a connection carries them, then decodes both streams.
func replayCodec(tr *tracer, wire []service.WireQuery, replies []service.Reply, ss []sample, rs *replayStats) error {
	var reqBuf, repBuf bytes.Buffer
	reqEnc, repEnc := gob.NewEncoder(&reqBuf), gob.NewEncoder(&repBuf)
	for i, q := range wire {
		req := service.Request{ID: uint64(ss[i].idx), Kind: service.KindQuery, Query: q}
		t0 := nowNanos()
		if err := reqEnc.Encode(req); err != nil {
			return err
		}
		if err := repEnc.Encode(replies[i]); err != nil {
			return err
		}
		t1 := nowNanos()
		tr.add(0, ss[i].idx, "service.encode", t0, t1)
		rs.codecNs += t1 - t0
	}
	rs.replyBytes = repBuf.Len()
	reqDec, repDec := gob.NewDecoder(&reqBuf), gob.NewDecoder(&repBuf)
	for i := range wire {
		var req service.Request
		var reply service.Reply
		t0 := nowNanos()
		if err := reqDec.Decode(&req); err != nil {
			return err
		}
		if err := repDec.Decode(&reply); err != nil {
			return err
		}
		t1 := nowNanos()
		tr.add(0, ss[i].idx, "service.decode", t0, t1)
		rs.codecNs += t1 - t0
	}
	return nil
}
