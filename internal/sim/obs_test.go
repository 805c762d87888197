package sim

import (
	"strings"
	"testing"

	"subtrav/internal/obs"
	"subtrav/internal/sched"
	"subtrav/internal/storage"
	"subtrav/internal/traverse"
)

// TestSimTracerIntoRing runs a simulation with spans traced into a
// ring (Cluster.SetTrace) and disk metrics mirrored into a registry:
// the same observability surface the live runtime exposes.
func TestSimTracerIntoRing(t *testing.T) {
	g := testGraph(t)
	c := newCluster(t, g, 2, 1<<20)
	ring := obs.NewRing(64)
	c.SetTrace(ring)
	reg := obs.NewRegistry()
	c.SetDiskMetrics(storage.NewMetrics(reg))

	const n = 25
	tasks := bfsTasks(t, g, n, 31)
	res, err := c.Run(sched.NewBaseline(1), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed = %d, want %d", res.Completed, n)
	}

	spans := ring.Last(n)
	if len(spans) != n {
		t.Fatalf("ring holds %d spans, want %d", len(spans), n)
	}
	var misses int
	for _, s := range spans {
		if s.Outcome != obs.OutcomeCompleted {
			t.Errorf("span %d outcome = %q", s.QueryID, s.Outcome)
		}
		if s.Unit < 0 || s.Unit >= 2 {
			t.Errorf("span %d unit = %d", s.QueryID, s.Unit)
		}
		if s.ScheduleNanos < s.SubmitNanos || s.StartNanos < s.ScheduleNanos || s.EndNanos < s.StartNanos {
			t.Errorf("span %d virtual timestamps out of order: %+v", s.QueryID, s)
		}
		misses += s.CacheMisses
		// Batching is off, so the unit replays the task's own trace:
		// every access is charged exactly once, as a hit or a miss.
		_, tr, err := traverse.Execute(g, tasks[s.QueryID].Query)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.CacheHits + s.CacheMisses; got != len(tr.Accesses) {
			t.Errorf("span %d charged %d hits+misses, want %d replayed accesses", s.QueryID, got, len(tr.Accesses))
		}
	}
	if misses == 0 {
		t.Error("no span recorded cache misses on a cold cluster")
	}
	// The mirrored disk counters must agree with the cluster's own
	// accounting and be scrapeable.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "subtrav_disk_requests_total") {
		t.Errorf("exposition missing disk series:\n%s", b.String())
	}
}
