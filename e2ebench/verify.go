package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"subtrav/internal/graph"
	"subtrav/internal/service"
	"subtrav/internal/traverse"
)

// verifyWorkers bounds the goroutines re-executing queries.
const verifyWorkers = 2

// queriesAt regenerates the stream of w under seed and returns the
// queries at the given ascending positions.
func queriesAt(w workload, seed uint64, numKeys int, positions []int64) ([]service.WireQuery, error) {
	st := newStream(w, seed, numKeys)
	out := make([]service.WireQuery, 0, len(positions))
	for _, want := range positions {
		for {
			idx, q, err := st.next()
			if err != nil {
				return nil, err
			}
			if idx == want {
				out = append(out, q)
				break
			}
		}
	}
	return out, nil
}

// verify re-executes the query of every OK sample on g, outside the
// runtime, and demotes each reply whose result differs to
// outcomeWrong. Each verifier runs traverse.ExecuteIn on a private
// Workspace — the kernels traverse.Execute runs on a fresh one,
// without allocating a workspace per query. It sorts samples by
// stream position and returns the number of mismatches.
func verify(g *graph.Graph, w workload, seed uint64, samples []sample) (int, error) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].idx < samples[j].idx })
	positions := make([]int64, len(samples))
	for i, s := range samples {
		positions[i] = s.idx
	}
	queries, err := queriesAt(w, seed, g.NumVertices(), positions)
	if err != nil {
		return 0, err
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		wrong    int
		firstErr error
	)
	jobs := make(chan int)
	for k := 0; k < verifyWorkers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Zipf-hot queries repeat; each worker remembers what it
			// already computed.
			memo := map[service.WireQuery]uint64{}
			ws := traverse.NewWorkspace(g.NumVertices())
			for i := range jobs {
				want, ok := memo[queries[i]]
				if !ok {
					q, err := queries[i].ToQuery()
					var r traverse.Result
					if err == nil {
						r, _, err = traverse.ExecuteIn(ws, g, q)
					}
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("query %d: %w", samples[i].idx, err)
						}
						mu.Unlock()
						continue
					}
					want = resultDigest(r)
					memo[queries[i]] = want
				}
				if samples[i].digest != want {
					samples[i].out = outcomeWrong
					mu.Lock()
					wrong++
					mu.Unlock()
				}
			}
		}()
	}
	for i := range samples {
		if samples[i].out == outcomeOK {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()
	return wrong, firstErr
}

// fnv64 is an FNV-1a hash fed whole 64-bit words.
type fnv64 uint64

func newFNV64() fnv64 { return 14695981039346656037 }

func (h *fnv64) add(x uint64) {
	for i := 0; i < 8; i++ {
		*h ^= fnv64(x & 0xff)
		*h *= 1099511628211
		x >>= 8
	}
}

// replyDigest hashes every result field of a reply — Visited, Found,
// PathLen, each recommendation and each ranking entry, floats by
// their exact bits — so that it equals resultDigest of the reference
// result only when the two are identical, up to a 2^-64 collision.
func replyDigest(r service.Reply) uint64 {
	h := newFNV64()
	h.add(uint64(r.Visited))
	h.add(boolBit(r.Found))
	h.add(uint64(r.PathLen))
	h.add(uint64(len(r.Recommendations)))
	for _, rec := range r.Recommendations {
		h.add(uint64(rec.Product))
		h.add(math.Float64bits(rec.Similarity))
	}
	h.add(uint64(len(r.Ranking)))
	for _, rk := range r.Ranking {
		h.add(uint64(rk.Vertex))
		h.add(math.Float64bits(rk.Score))
	}
	return uint64(h)
}

// resultDigest is replyDigest of the reply a correct server sends for
// result r.
func resultDigest(r traverse.Result) uint64 { return replyDigest(wireReply(r)) }

// wireReply is the wire form of a result, as the server encodes it.
func wireReply(r traverse.Result) service.Reply {
	reply := service.Reply{Visited: r.Visited, Found: r.Found, PathLen: r.PathLen}
	for _, rec := range r.Recommendations {
		reply.Recommendations = append(reply.Recommendations,
			service.WireRec{Product: int32(rec.Product), Similarity: rec.Similarity})
	}
	for _, rk := range r.Ranking {
		reply.Ranking = append(reply.Ranking, service.WireRanked{Vertex: int32(rk.Vertex), Score: rk.Score})
	}
	return reply
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
