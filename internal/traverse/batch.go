package traverse

import (
	"fmt"
	"math"

	"subtrav/internal/graph"
)

// Batch is the one BFS/SSSP engine. Several same-unit queries advance
// their frontiers in lockstep waves, so a record that two queries
// touch in the same wave is loaded once for both. The paper's workload
// premise — concurrent traversals overlap heavily on hub vertices —
// is exactly the case where the wave union is much smaller than the
// sum of the per-query frontiers. A single-source run
// (Workspace.BFS / Workspace.BoundedSSSP) is a batch of one.
//
// Correctness is anchored by a strict invariant: every query's Result
// and Trace are bit-for-bit identical to the reference kernels'
// (reference.go) for that query alone. Batching changes only *when*
// records are loaded (and therefore what the executor pays), never
// what a query computes or touches. Two properties make this hold:
//
//   - BFS is level-synchronous: the reference kernel's FIFO queue
//     pops depth-d vertices in the exact order they were enqueued at
//     depth d-1, which is the order a wave-at-a-time loop reproduces.
//     The bounded-SSSP kernel expands one side per loop iteration;
//     running one iteration per wave replays the identical expansion
//     sequence.
//
//   - Per-query visit state stays fully private. With two or more
//     queries, BFS enqueued-sets and touched-sets are packed as
//     per-query bits in shared dense bitmask maps (epoch-stamped, O(1)
//     clear); SSSP label/access maps are per-slot. No query can
//     observe another's visit marks, so predicates, MaxVisits caps,
//     and meet detection behave exactly as in isolation.
//
// The shared per-wave record-load pass is emitted as a separate
// "shared" Trace: within one wave each distinct vertex record appears
// once no matter how many queries touch it, and its ScannedEdges
// aggregates every batched query's scan work on that record, so
// replaying the shared trace against a cache and disk yields the
// batch's actual I/O and CPU cost. Across waves a record reappears —
// the cache decides whether that is a hit, just as for independent
// queries. A batch of one shares nothing: its shared trace is its
// member's trace, and it skips the dedupe and the bitmasks.

// MaxBatch is the largest number of queries one Batch.Run can advance
// together: per-query BFS visit state is one bit per query in an int32
// dense map.
const MaxBatch = 32

// Batchable reports whether op can run in a multi-source batch.
// Collaborative filtering and RWR have data-dependent iteration
// structure with no wave alignment to exploit, so they run solo.
func Batchable(op Op) bool { return op == OpBFS || op == OpSSSP }

// batchRunner is the private per-slot state of one batched query.
type batchRunner struct {
	q       Query
	done    bool
	visited int

	// bit is the slot's bit in the shared bitmask maps, or 0 in a batch
	// of one, whose marks live in private maps (see mark).
	bit uint32

	// BFS: current wave depth (== wave index while active).
	depth int32

	// SSSP: the bidirectional search's loop state, advanced one side
	// expansion per wave. maps holds the slot's labels and access
	// indices; side 0 searches from Start, side 1 from Target.
	st   ssspState
	maps *slotMaps
	side [2]ssspSide

	// Direction-optimization state (see direction.go): resolved config
	// and the BFS frontier's push/pull hysteresis and Beamer
	// unexplored-edge counter — int64 so synthetic max-degree graphs
	// can't wrap it. SSSP keeps both per side.
	dir        DirectionConfig
	pulling    bool
	unexplored int64
	stats      DirStats
}

// ssspSide is one search side's frontier depth, hop limit, and
// direction state.
type ssspSide struct {
	depth, limit int
	pulling      bool
	unexplored   int64
}

// frontiers is one slot's reusable frontier double-buffers: BFS uses
// pair 0; SSSP one pair per search side.
type frontiers struct {
	cur, next [2][]graph.VertexID
}

// Batch runs BFS and SSSP queries in lockstep waves, one query or up
// to MaxBatch. It owns the per-query and shared output buffers, reused
// across runs.
//
// Ownership contract (mirrors Workspace): the Results, Traces, and
// shared Trace returned by Run are owned by the Batch and valid only
// until its next Run (or, for a Workspace's Batch, its next kernel
// call). Callers that retain a Result must Clone it; callers that
// retain a Trace must copy its slices.
//
// Not safe for concurrent use.
type Batch struct {
	scratch *Scratch

	// sharing is set for runs of two or more queries: only they
	// dedupe wave loads into the shared trace and pack visit marks
	// into per-slot bits.
	sharing bool
	// enq holds BFS enqueued marks: the lone slot's private map
	// (scratch.labels[0]) in a batch of one, the bitmask map
	// scratch.enqMask otherwise.
	enq *graph.VertexMap

	slots   []batchRunner
	fronts  []frontiers
	traces  []Trace
	ptrs    []*Trace
	results []Result
	shared  Trace

	// Shared wave scratch for direction-optimized expansion: the
	// expanding-vertex list and the pull-discovery buffer, reused by
	// every slot (slots advance sequentially within a wave).
	expand     []graph.VertexID
	cands      []pullCand
	candsOut   []pullCand
	candCounts []int32
	// found is an SSSP pull wave's discoveries in push order.
	found []graph.VertexID
}

// NewBatch returns a Batch with a private Scratch sized for graphs of
// numVertices. To share a Scratch, use the Batch of a Workspace built
// by NewWorkspaceWithScratch.
func NewBatch(numVertices int) *Batch {
	return &Batch{scratch: NewScratch(numVertices)}
}

// Run advances all queries to completion in lockstep waves and returns
// per-query results and traces — bit-for-bit identical to independent
// single-source runs — plus the shared wave-ordered record-load trace
// (see the comment at the top of this file). Only Batchable ops are
// accepted, and at most MaxBatch queries per call.
func (b *Batch) Run(g *graph.Graph, queries []Query) (results []Result, traces []*Trace, shared *Trace, err error) {
	if len(queries) == 0 {
		return nil, nil, nil, fmt.Errorf("traverse: empty batch")
	}
	if len(queries) > MaxBatch {
		return nil, nil, nil, fmt.Errorf("traverse: batch of %d queries, max %d", len(queries), MaxBatch)
	}
	for i, q := range queries {
		if !Batchable(q.Op) {
			return nil, nil, nil, fmt.Errorf("traverse: query %d: op %v is not batchable", i, q.Op)
		}
		if err := q.Validate(g); err != nil {
			return nil, nil, nil, fmt.Errorf("traverse: query %d: %w", i, err)
		}
	}

	b.exec(g, queries)
	for i := range b.ptrs {
		b.ptrs[i] = &b.traces[i]
	}
	if !b.sharing {
		return b.results, b.ptrs, &b.traces[0], nil
	}
	return b.results, b.ptrs, &b.shared, nil
}

// exec runs validated queries to completion.
//
//vet:hotpath
func (b *Batch) exec(g *graph.Graph, queries []Query) {
	b.begin(g, queries)
	active := len(queries)
	for wave := 0; active > 0; wave++ {
		if b.sharing {
			b.scratch.waveLoaded.Clear()
		}
		for i := range b.slots {
			r := &b.slots[i]
			if r.done {
				continue
			}
			from := len(b.traces[i].Accesses)
			var charged []graph.VertexID
			switch r.q.Op {
			case OpBFS:
				if wave == 0 {
					b.bfsInit(g, i)
				}
				b.bfsWave(g, i)
			case OpSSSP:
				if wave == 0 {
					b.ssspInit(g, i)
				} else {
					charged = b.ssspWave(g, i)
				}
			}
			if b.sharing {
				b.share(g, i, from, charged)
			}
			if r.done {
				active--
			}
		}
	}
}

// begin readies the batch for one run over g.
//
//vet:hotpath
func (b *Batch) begin(g *graph.Graph, queries []Query) {
	s := b.scratch
	k := len(queries)
	b.sharing = k > 1
	s.batched = s.batched || b.sharing
	s.grow(g.NumVertices())
	s.seen.Clear()
	b.enq = &s.labels[0]
	if b.sharing {
		b.enq = &s.enqMask
		s.seenMask.Clear()
		s.sharedAcc.Clear()
		b.shared.Accesses = b.shared.Accesses[:0]
		b.shared.Touched = b.shared.Touched[:0]
	}
	b.enq.Clear()

	for len(b.slots) < k {
		b.slots = append(b.slots, batchRunner{})
		b.fronts = append(b.fronts, frontiers{})
		b.traces = append(b.traces, Trace{})
		b.ptrs = append(b.ptrs, nil)
		b.results = append(b.results, Result{})
	}
	b.slots = b.slots[:k]
	b.fronts = b.fronts[:k]
	b.traces = b.traces[:k]
	b.ptrs = b.ptrs[:k]
	b.results = b.results[:k]

	ssspSlots := 0
	for i := range b.slots {
		tr := &b.traces[i]
		tr.Accesses = tr.Accesses[:0]
		tr.Touched = tr.Touched[:0]
		r := &b.slots[i]
		*r = batchRunner{}
		r.q = queries[i]
		if b.sharing {
			r.bit = 1 << uint(i)
		}
		if queries[i].Op == OpSSSP {
			r.maps = s.ssspMaps(ssspSlots)
			ssspSlots++
		}
	}
}

// mark sets the slot's mark on u in m and reports whether it was
// newly set. bit is the slot's bit in a shared bitmask map, or 0 when
// m belongs to one slot and presence alone is the mark. The per-edge
// and per-vertex loops of bfsPush and discover spell the bit-0 case
// out instead: there the inlined helper costs several percent.
//
//vet:hotpath
func mark(m *graph.VertexMap, u graph.VertexID, bit uint32) bool {
	if bit == 0 {
		if m.Contains(u) {
			return false
		}
	} else if x, _ := m.Get(u); uint32(x)&bit != 0 {
		return false
	} else {
		bit |= uint32(x)
	}
	m.Put(u, int32(bit))
	return true
}

// touch records a query's access to v in its trace tr, returning the
// access index. A batch of one also dedupes Touched here; with
// sharing, share does it after the wave.
//
//vet:hotpath
func (b *Batch) touch(g *graph.Graph, tr *Trace, v graph.VertexID) int {
	tr.Accesses = append(tr.Accesses, Access{Vertex: v, Bytes: g.VertexBytes(v)})
	if !b.sharing && b.scratch.seen.Add(v) {
		tr.Touched = append(tr.Touched, v)
	}
	return len(tr.Accesses) - 1
}

// share folds slot i's work in the wave just run into its Touched and
// the shared trace: the scans an SSSP side charged to its frontier
// (charged), then the accesses from index from on, in order. Each
// record's first toucher in the wave emits the shared access, and a
// scan charged with an access (BFS charges an expanding vertex right
// after touching it) lands on that record's latest shared access.
// This equals updating the shared trace at each touch and scan: no
// other slot runs in between, and an SSSP side never touches its own
// frontier again.
//
//vet:hotpath
func (b *Batch) share(g *graph.Graph, i, from int, charged []graph.VertexID) {
	s := b.scratch
	for _, v := range charged {
		idx, _ := s.sharedAcc.Get(v)
		b.shared.chargeScan(int(idx), g.Degree(v))
	}
	tr := &b.traces[i]
	bit := b.slots[i].bit
	for _, a := range tr.Accesses[from:] {
		v := a.Vertex
		if mark(&s.seenMask, v, bit) {
			tr.Touched = append(tr.Touched, v)
		}
		if s.waveLoaded.Add(v) {
			s.sharedAcc.Put(v, int32(len(b.shared.Accesses)))
			b.shared.Accesses = append(b.shared.Accesses, Access{Vertex: v, Bytes: a.Bytes})
			if s.seen.Add(v) {
				b.shared.Touched = append(b.shared.Touched, v)
			}
		}
		if a.ScannedEdges > 0 {
			idx, _ := s.sharedAcc.Get(v)
			b.shared.chargeScan(int(idx), int(a.ScannedEdges))
		}
	}
}

// discover is the bottom-up discovery pass of every pull wave, BFS and
// SSSP alike: scan each vertex not yet marked in labels (see mark;
// SSSP side labels are private maps, bit 0) and probe its in-edges for
// a qualifying frontier parent, keeping the minimum (frontier position
// << 32 | forward slot) key — the rank at which a push wave would have
// discovered it. The discoveries come
// back ordered by key (orderPullCands), which is the push discovery
// order exactly. The probe cannot early-exit on the first parent (the
// classic bottom-up shortcut) precisely because the *minimum* key is
// needed; the win is that the in-edges of the shrinking unvisited set
// are far fewer than the out-edges of a dense frontier.
//
// Pull probing walks the in-CSR index, which is in-memory adjacency
// metadata like the forward offsets — not a record load — so it adds
// nothing to any trace.
//
//vet:hotpath
func (b *Batch) discover(g *graph.Graph, q *Query, frontier []graph.VertexID, labels *graph.VertexMap, bit uint32) []pullCand {
	in := g.In()
	pos := &b.scratch.levelPos
	pos.Clear()
	for j, v := range frontier {
		pos.Put(v, int32(j))
	}
	cands := b.cands[:0]
	n := graph.VertexID(g.NumVertices())
	for u := graph.VertexID(0); u < n; u++ {
		if bit == 0 {
			if labels.Contains(u) {
				continue
			}
		} else if x, _ := labels.Get(u); uint32(x)&bit != 0 {
			continue
		}
		lo, hi := in.Edges(u)
		best := uint64(math.MaxUint64)
		for p := lo; p < hi; p++ {
			j, ok := pos.Get(in.Sources[p])
			if !ok {
				continue
			}
			key := uint64(j)<<32 | uint64(in.FwdSlot[p])
			if key >= best {
				continue
			}
			if q.EdgePred != nil && !q.EdgePred(g.EdgeProps(g.LogicalEdge(int64(in.FwdSlot[p])))) {
				continue
			}
			best = key
		}
		if best != math.MaxUint64 {
			cands = append(cands, pullCand{key: best, u: u})
		}
	}
	b.cands = cands
	return orderPullCands(cands, len(frontier), &b.candsOut, &b.candCounts)
}

// bfsInit seeds slot i's frontier with its start vertex and its
// direction state.
//
//vet:hotpath
func (b *Batch) bfsInit(g *graph.Graph, i int) {
	r := &b.slots[i]
	f := &b.fronts[i]
	f.cur[0] = append(f.cur[0][:0], r.q.Start)
	mark(b.enq, r.q.Start, r.bit)
	r.dir = r.q.Dir.withDefaults()
	r.unexplored = g.NumSlots() - int64(g.Degree(r.q.Start))
}

// bfsWave processes slot i's entire depth-d frontier — the contiguous
// run of depth-d pops in the reference kernel's queue — and builds the
// depth-d+1 frontier, top-down or bottom-up per the direction
// heuristic. The wave splits into a process pass (touch every frontier
// vertex in pop order, apply VertexPred / MaxVisits / depth bound,
// charge scans — all the trace-visible work) and an expansion pass
// that only builds the next frontier, so push and pull waves leave
// identical traces.
//
//vet:hotpath
func (b *Batch) bfsWave(g *graph.Graph, i int) {
	r := &b.slots[i]
	q := &r.q
	tr := &b.traces[i]
	f := &b.fronts[i]
	cur := f.cur[0]
	next := f.next[0][:0]

	exp := b.expand[:0]
	var mF int64
	visited, expand := r.visited, int(r.depth) < q.Depth
	for _, v := range cur {
		acc := b.touch(g, tr, v)
		if q.VertexPred != nil && !q.VertexPred(g.VertexProps(v)) {
			continue
		}
		visited++
		if q.MaxVisits > 0 && visited >= q.MaxVisits {
			// The reference kernel breaks out of its pop loop here,
			// dropping the rest of the queue — so the remainder of this
			// frontier and the expansion pass are dropped too.
			r.done = true
			break
		}
		if !expand {
			continue
		}
		lo, hi := g.EdgeSlots(v)
		tr.chargeScan(acc, int(hi-lo))
		exp = append(exp, v)
		mF += hi - lo
	}
	r.visited = visited
	b.expand = exp
	if !r.done && len(exp) > 0 {
		pull := r.dir.next(r.pulling, mF, r.unexplored, len(exp), g.NumVertices())
		r.stats.record(pull, r.pulling, r.depth == 0)
		r.pulling = pull
		if pull {
			for _, c := range b.discover(g, q, exp, b.enq, r.bit) {
				mark(b.enq, c.u, r.bit)
				r.unexplored -= int64(g.Degree(c.u))
				next = append(next, c.u)
			}
		} else {
			next = bfsPush(g, q, exp, next, b.enq, r.bit, &r.unexplored)
		}
	}
	f.cur[0], f.next[0] = next, cur
	r.depth++
	if len(next) == 0 {
		r.done = true
	}
	if r.done {
		b.results[i] = Result{Visited: r.visited}
	}
}

// bfsPush is the top-down expansion: scan each expanding vertex's
// out-edges in order and enqueue the targets not yet marked in enq
// (see mark) as discovered.
//
//vet:hotpath
func bfsPush(g *graph.Graph, q *Query, exp, next []graph.VertexID, enq *graph.VertexMap, bit uint32, unexplored *int64) []graph.VertexID {
	for _, v := range exp {
		lo, hi := g.EdgeSlots(v)
		for s := lo; s < hi; s++ {
			if q.EdgePred != nil && !q.EdgePred(g.EdgeProps(g.LogicalEdge(s))) {
				continue
			}
			u := g.TargetAt(s)
			if bit == 0 { // mark, spelled out
				if enq.Contains(u) {
					continue
				}
				enq.Put(u, 0)
			} else if !mark(enq, u, bit) {
				continue
			}
			*unexplored -= int64(g.Degree(u))
			next = append(next, u)
		}
	}
	return next
}

// ssspInit performs the bidirectional search's setup: the
// Start==Target short-circuit, the two endpoint touches, and the
// initial frontiers. Expansion starts at wave 1.
//
//vet:hotpath
func (b *Batch) ssspInit(g *graph.Graph, i int) {
	r := &b.slots[i]
	q := &r.q
	if q.Start == q.Target {
		b.touch(g, &b.traces[i], q.Start)
		b.results[i] = Result{Visited: 1, Found: true, PathLen: 0}
		r.done = true
		return
	}
	m := r.maps
	f := &b.fronts[i]
	r.dir = q.Dir.withDefaults()
	r.st = ssspState{visited: 2, best: -1}
	for s, v := range [2]graph.VertexID{q.Start, q.Target} {
		m.labels[s].Put(v, 0)
		f.cur[s] = append(f.cur[s][:0], v)
	}
	for s, v := range [2]graph.VertexID{q.Start, q.Target} {
		m.acc[s].Put(v, int32(b.touch(g, &b.traces[i], v)))
		r.side[s].unexplored = g.NumSlots() - int64(g.Degree(v))
	}
	r.side[0].limit = (q.Depth + 1) / 2 // ceil(δ/2)
	r.side[1].limit = q.Depth / 2       // floor(δ/2); combined = δ
}

// ssspWave runs one iteration of the bidirectional search for slot i:
// the loop-condition check, one side expansion, and the best-length
// early exit. It returns the frontier vertices whose scans it charged.
//
//vet:hotpath
func (b *Batch) ssspWave(g *graph.Graph, i int) []graph.VertexID {
	r := &b.slots[i]
	f := &b.fronts[i]
	openA := r.side[0].depth < r.side[0].limit && len(f.cur[0]) > 0
	openB := r.side[1].depth < r.side[1].limit && len(f.cur[1]) > 0
	if r.st.capped || !(openA || openB) {
		b.ssspFinish(i)
		return nil
	}
	// Alternate sides, smaller frontier first, the usual bidirectional
	// heuristic.
	s := 1
	if openA && (!openB || len(f.cur[0]) <= len(f.cur[1])) {
		s = 0
	}
	sd := &r.side[s]
	front := f.cur[s]
	var mF int64
	if r.dir.Mode == DirAuto && !sd.pulling {
		mF = frontierEdges(g, front)
	}
	pull := r.dir.next(sd.pulling, mF, sd.unexplored, len(front), g.NumVertices())
	r.stats.record(pull, sd.pulling, sd.depth == 0)
	sd.pulling = pull
	m := r.maps
	next, charged := b.ssspExpand(g, &r.q, &r.st, &b.traces[i], sd,
		&m.labels[s], &m.acc[s], &m.labels[1-s], pull, front, f.next[s][:0])
	f.cur[s], f.next[s] = next, front
	sd.depth++
	if r.st.best >= 0 && r.st.best <= r.side[0].depth+r.side[1].depth {
		// No shorter meeting can appear once both processed depths
		// cover the best found length.
		b.ssspFinish(i)
	}
	return front[:charged]
}

// ssspFinish ends slot i's search and records its Result.
//
//vet:hotpath
func (b *Batch) ssspFinish(i int) {
	r := &b.slots[i]
	r.done = true
	if r.st.best >= 0 && r.st.best <= r.q.Depth {
		b.results[i] = Result{Visited: r.st.visited, Found: true, PathLen: r.st.best}
		return
	}
	b.results[i] = Result{Visited: r.st.visited, Found: false}
}

// ssspExpand advances one search side a hop: sd's frontier, labeled
// in mine with record-access indices in accIdx, against the other
// side's labels, writing the next frontier into next (reused
// storage). Per frontier vertex in order it charges the vertex's scan,
// then labels its discoveries in forward slot order — its out-edge
// targets top-down, or its share of the ordered discover pass
// bottom-up — touching each one's record, meet-checking it against
// the other side, and honoring the visit cap, so both directions
// leave the identical Trace (touches interleave with labeling here,
// unlike BFS) and counters. The other side's labels never change
// during one side's expansion, so the precomputed pull discoveries
// cannot go stale. It also returns how many frontier vertices it
// charged before the visit cap stopped it. The slot's state comes
// unpacked into arguments, which keeps the loop out of memory.
//
//vet:hotpath
func (b *Batch) ssspExpand(g *graph.Graph, q *Query, st *ssspState, tr *Trace, sd *ssspSide,
	mine, accIdx, other *graph.VertexMap, pull bool, frontier, next []graph.VertexID) ([]graph.VertexID, int) {
	var cands []pullCand
	if pull {
		cands = b.discover(g, q, frontier, mine, 0)
		found := b.found[:0]
		for _, c := range cands {
			found = append(found, c.u)
		}
		b.found = found
	}
	label, unexplored := int32(sd.depth+1), &sd.unexplored
	// Pull discoveries already passed EdgePred (in discover).
	edgePred := q.EdgePred
	if pull {
		edgePred = nil
	}
	ci, charged := 0, 0
	for j, v := range frontier {
		if st.capped {
			break
		}
		charged++
		lo, hi := g.EdgeSlots(v)
		vAcc, _ := accIdx.Get(v)
		tr.chargeScan(int(vAcc), int(hi-lo))
		// v's candidate discoveries: its out-edge targets, or the pull
		// discoveries ranked at frontier position j.
		targets := g.Neighbors(v)
		if pull {
			from := ci
			for ci < len(cands) && int(cands[ci].key>>32) == j {
				ci++
			}
			targets = b.found[from:ci]
		}
		for k, u := range targets {
			if edgePred != nil && !edgePred(g.EdgeProps(g.LogicalEdge(lo+int64(k)))) {
				continue
			}
			if mine.Contains(u) {
				continue
			}
			mine.Put(u, label)
			accIdx.Put(u, int32(b.touch(g, tr, u)))
			st.visited++
			*unexplored -= int64(g.Degree(u))
			if d, ok := other.Get(u); ok {
				if total := int(label + d); st.best < 0 || total < st.best {
					st.best = total
				}
				continue
			}
			if q.MaxVisits > 0 && st.visited >= q.MaxVisits {
				st.capped = true
				break
			}
			next = append(next, u)
		}
	}
	return next, charged
}

// DirStats returns slot i's push/pull direction counters from the most
// recent Run. Valid until the next Run.
func (b *Batch) DirStats(i int) DirStats { return b.slots[i].stats }
