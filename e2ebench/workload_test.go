package main

import (
	"math"
	"reflect"
	"testing"

	"subtrav/internal/service"
	"subtrav/internal/traverse"
)

// firstQueries draws n queries from a fresh stream.
func firstQueries(t *testing.T, w workload, seed uint64, n int) []service.WireQuery {
	t.Helper()
	st := newStream(w, seed, 20_000)
	out := make([]service.WireQuery, n)
	for i := range out {
		idx, q, err := st.next()
		if err != nil {
			t.Fatal(err)
		}
		if idx != int64(i) {
			t.Fatalf("query %d reported position %d", i, idx)
		}
		out[i] = q
	}
	return out
}

func TestSeedFixesTheQueryStream(t *testing.T) {
	// Long enough to cross several plan chunks.
	const n = 3*chunkEvents + 17
	for _, w := range workloads {
		a := firstQueries(t, w, 7, n)
		if b := firstQueries(t, w, 7, n); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different streams", w.name)
		}
		c := firstQueries(t, w, 8, n)
		same := 0
		for i := range a {
			if a[i] == c[i] {
				same++
			}
		}
		if same == n {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestStreamFollowsTheWorkloadMix(t *testing.T) {
	for _, w := range workloads {
		counts := map[string]int{}
		for _, q := range firstQueries(t, w, 1, 2*chunkEvents) {
			counts[q.Op]++
			if _, err := q.ToQuery(); err != nil {
				t.Fatalf("%s: %+v: %v", w.name, q, err)
			}
		}
		total := w.mix.BFS + w.mix.SSSP + w.mix.Collab + w.mix.RWR
		for op, weight := range map[string]float64{"bfs": w.mix.BFS, "sssp": w.mix.SSSP, "collab": w.mix.Collab, "rwr": w.mix.RWR} {
			got := float64(counts[op]) / float64(2*chunkEvents)
			if want := weight / total; math.Abs(got-want) > 0.03 {
				t.Errorf("%s: %s share %.3f, want %.3f", w.name, op, got, want)
			}
		}
	}
}

func TestQueriesAtRegeneratesPositions(t *testing.T) {
	w := workloads[1]
	all := firstQueries(t, w, 3, 5000)
	positions := []int64{0, 1, 2, 999, 4096, 4097, 4999}
	got, err := queriesAt(w, 3, 20_000, positions)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range positions {
		if got[i] != all[p] {
			t.Errorf("position %d: %+v, want %+v", p, got[i], all[p])
		}
	}
}

func TestDigestSeesEveryResultField(t *testing.T) {
	base := traverse.Result{
		Visited: 12, Found: true, PathLen: 3,
		Recommendations: []traverse.Recommendation{{Product: 4, Similarity: 0.5}},
		Ranking:         []traverse.Ranked{{Vertex: 9, Score: 0.25}},
	}
	want := resultDigest(base)
	if got := replyDigest(wireReply(base)); got != want {
		t.Fatalf("reply digest %x, result digest %x", got, want)
	}
	mutations := []func(r *traverse.Result){
		func(r *traverse.Result) { r.Visited++ },
		func(r *traverse.Result) { r.Found = false },
		func(r *traverse.Result) { r.PathLen-- },
		func(r *traverse.Result) { r.Recommendations[0].Product++ },
		func(r *traverse.Result) {
			r.Recommendations[0].Similarity = math.Nextafter(r.Recommendations[0].Similarity, 1)
		},
		func(r *traverse.Result) { r.Recommendations = nil },
		func(r *traverse.Result) { r.Ranking[0].Vertex = 10 },
		func(r *traverse.Result) { r.Ranking[0].Score = math.Nextafter(r.Ranking[0].Score, 0) },
		func(r *traverse.Result) { r.Ranking = append(r.Ranking, traverse.Ranked{}) },
	}
	for i, mutate := range mutations {
		r := base.Clone()
		mutate(&r)
		if resultDigest(r) == want {
			t.Errorf("mutation %d left the digest unchanged", i)
		}
	}
}
