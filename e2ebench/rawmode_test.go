package main

import (
	"testing"
	"time"

	"subtrav"
	"subtrav/internal/affinity"
	"subtrav/internal/graph"
	"subtrav/internal/live"
	"subtrav/internal/sim"
	"subtrav/internal/storage"
	"subtrav/internal/traverse"
)

// The end-to-end runs rely on raw mode: with TimeScale rawTimeScale
// every modeled cost must scale below one nanosecond, which the
// runtime's sleep rounds to zero without arming a timer.
func TestRawModeArmsNoSleepTimer(t *testing.T) {
	g, err := subtrav.TwitterLike(subtrav.ScaleSmall, graphSeed)
	if err != nil {
		t.Fatal(err)
	}
	// The cost model a zero live.Config.Cost stands for.
	cost := sim.DefaultCostModel()

	// The largest modeled cost: a seek plus the biggest record's
	// transfer, plus the inline CPU of a full trace that reads every
	// record once, hit and miss charges both, with its whole adjacency
	// scanned.
	var biggest, fullTrace int64
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		b := int64(g.VertexBytes(id))
		biggest = max(biggest, b)
		fullTrace += cost.MemHitNanos + cost.CPUVertexNanos + int64(g.Degree(id))*cost.CPUEdgeNanos +
			int64(cost.CPUMissByteNanos*float64(b))
	}
	largest := cost.Disk.SeekNanos + storage.TransferNanos(biggest, cost.Disk.BytesPerSecond) + fullTrace
	if scaled := float64(largest) * rawTimeScale; scaled >= 1 {
		t.Fatalf("largest modeled cost %d ns scales to %.3g ns at TimeScale %g, want < 1 ns", largest, scaled, rawTimeScale)
	}
	if d := time.Duration(float64(largest) * rawTimeScale); d != 0 {
		t.Fatalf("largest modeled cost converts to a %v sleep, want none", d)
	}

	// The runtime must take the raw scale as given. A cold-buffer query
	// misses on every record it touches, and at the default scale of
	// 1e-3 each miss sleeps at least seek·1e-3 on top of the CPU work
	// both runs share, so a runtime that replaced the raw scale would
	// run the query no faster than one at the default scale.
	q := traverse.Query{Op: traverse.OpBFS, Start: 0, Depth: 3, MaxVisits: 1000}
	_, trace, err := traverse.Execute(g, q)
	if err != nil {
		t.Fatal(err)
	}
	floor := time.Duration(float64(int64(len(trace.Touched))*cost.Disk.SeekNanos) * 1e-3)
	raw := fastestColdExec(t, g, q, rawTimeScale)
	modeled := fastestColdExec(t, g, q, 1e-3)
	if raw+floor/2 >= modeled {
		t.Errorf("cold query took %v in raw mode and %v at TimeScale 1e-3, whose %d misses sleep at least %v: raw mode is not in effect",
			raw, modeled, len(trace.Touched), floor)
	}
}

// fastestColdExec runs q on fresh runtimes of the interactive shape at
// the given time scale and returns the shortest execution time.
func fastestColdExec(t *testing.T, g *graph.Graph, q traverse.Query, scale float64) time.Duration {
	t.Helper()
	cfg := workloads[0].config(0)
	cfg.TimeScale = scale
	best := time.Duration(1<<63 - 1)
	for attempt := 0; attempt < 3; attempt++ {
		rt, err := live.NewAuction(g, cfg, affinity.DefaultConfig(), auctionEpsilon)
		if err != nil {
			t.Fatalf("TimeScale %g rejected: %v", scale, err)
		}
		resp, err := rt.Do(q)
		rt.Close()
		if err != nil || resp.Err != nil {
			t.Fatalf("query: %v / %v", err, resp.Err)
		}
		best = min(best, resp.Exec)
	}
	return best
}
