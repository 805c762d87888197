package service

import (
	"encoding/gob"
	"net"
	"testing"
	"time"

	"subtrav/internal/affinity"
	"subtrav/internal/faultpoint"
	"subtrav/internal/graph"
	"subtrav/internal/graphgen"
	"subtrav/internal/live"
)

// TestDisconnectCancelsQueries: a client that vanishes mid-query must
// not leave its queries running. Every disk read stalls 50 ms, so the
// queries would take seconds; closing the connection cancels them,
// the runtime resolves each as timed out with the lifecycle counters
// balanced, and the connection's handler returns without waiting the
// queries out.
func TestDisconnectCancelsQueries(t *testing.T) {
	t.Parallel()
	g, err := graphgen.PowerLaw(graphgen.PowerLawConfig{
		NumVertices: 500, NumEdges: 2500, Exponent: 2.3,
		Kind: graph.Undirected, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := slowServiceConfig()
	cfg.QueueCap, cfg.MaxPending = 8, 8
	cfg.Faults = faultpoint.NewSet(1).Add(faultpoint.DiskRead, faultpoint.Rule{
		Every: 1, Delay: 50 * time.Millisecond,
	})
	rt, err := live.NewAuction(g, cfg, affinity.DefaultConfig(), 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv, err := NewServer(rt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	enc := gob.NewEncoder(conn)
	for i := 0; i < n; i++ {
		q := WireQuery{Op: "bfs", Start: int32(i * 7), Depth: 3, MaxVisits: 200}
		if err := enc.Encode(Request{ID: uint64(i + 1), Query: q}); err != nil {
			t.Fatal(err)
		}
	}
	// Disconnect once every query is admitted and the unit is busy.
	waitFor(t, "queries admitted and executing", func() bool {
		return rt.Metrics().Submitted == n && rt.Stats()[0].Busy
	})
	conn.Close()
	closed := time.Now()

	waitFor(t, "connection handler to return", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	})
	if took := time.Since(closed); took > time.Second {
		t.Errorf("handler returned %v after the disconnect; it waited for its queries", took)
	}
	waitFor(t, "queries resolved", func() bool { return rt.InFlight() == 0 })
	if took := time.Since(closed); took > 2*time.Second {
		t.Errorf("queries resolved %v after the disconnect; they were not cancelled", took)
	}
	m := rt.Metrics()
	if m.TimedOut != n || m.Completed != 0 || !m.Conserved() {
		t.Errorf("metrics = %v, want all %d queries timed out, conserved", m, n)
	}
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
