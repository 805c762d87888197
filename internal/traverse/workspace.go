package traverse

import "subtrav/internal/graph"

// Scratch bundles the NumVertices-sized dense structures the kernels
// share: epoch-stamped sets and maps (see graph.VertexSet/VertexMap)
// replacing the per-query visited/frontier/shared hash maps. A
// Scratch is reset at the start of every traversal (an O(1) epoch
// bump), so it can be shared by any number of Workspaces — and their
// Batches — whose kernel executions never overlap. The discrete-event
// simulator exploits this: its event loop runs one kernel at a time,
// so P units share a single Scratch instead of carrying P copies of
// O(|V|) arrays.
//
// A Workspace grows only the structures a batch of one needs; the
// ones marked "batch" below are grown by the first Batch.Run of two
// or more queries.
//
// Not safe for concurrent use.
type Scratch struct {
	// seen deduplicates a trace's Touched (first-visit order): the
	// lone query's in a batch of one and in CollabFilter/RandomWalk,
	// the shared trace's in a batch of two or more.
	seen graph.VertexSet
	// slotMaps is the first SSSP slot's labels and access indices;
	// a batch of one also keeps its BFS enqueued set in labels[0], and
	// CollabFilter and RandomWalk borrow the maps (see slotMaps).
	slotMaps
	// levelPos is the dense frontier view of a pull wave (expanding
	// vertex → frontier position), rebuilt per pull wave by an epoch
	// bump. Slots advance sequentially, so one map serves them all.
	levelPos graph.VertexMap

	// batched records that a run of two or more queries has grown the
	// batch structures below.
	batched bool
	// enqMask/seenMask (batch) hold per-query BFS enqueued and touched
	// bits (bit i = query slot i), replacing K separate dense sets.
	enqMask  graph.VertexMap
	seenMask graph.VertexMap
	// waveLoaded (batch) dedups the shared trace within one wave: the
	// first toucher of a record in a wave emits the shared access.
	waveLoaded graph.VertexSet
	// sharedAcc (batch) maps a vertex to its most recent shared access
	// index, so scan work lands on the wave-load that brought the
	// record in.
	sharedAcc graph.VertexMap
	// sssp holds the maps of SSSP slots 1, 2, ..., grown on demand to
	// the number of SSSP queries in the largest batch seen.
	sssp []*slotMaps
}

// slotMaps is the dense per-query state of one SSSP slot: per search
// side (0 from Start, 1 from Target), hop labels and record-access
// indices, so scanned edges attribute to the right record access. One
// set per concurrent SSSP query is the price of keeping per-query
// state private. CollabFilter borrows acc[0] (buyer → access index)
// and labels[1] (shared-buyer counts); RandomWalk borrows labels[0]
// (visit counts).
type slotMaps struct {
	labels [2]graph.VertexMap
	acc    [2]graph.VertexMap
}

func (m *slotMaps) grow(n int) {
	for s := range m.labels {
		m.labels[s].Grow(n)
		m.acc[s].Grow(n)
	}
}

func (m *slotMaps) reset() {
	for s := range m.labels {
		m.labels[s].Clear()
		m.acc[s].Clear()
	}
}

// NewScratch returns a Scratch sized for graphs of numVertices.
// Running a kernel against a bigger graph grows it transparently.
func NewScratch(numVertices int) *Scratch {
	s := &Scratch{}
	s.grow(numVertices)
	return s
}

func (s *Scratch) grow(n int) {
	if n <= s.seen.Cap() && (!s.batched || n <= s.enqMask.Cap()) {
		return // every structure in use already covers n
	}
	s.seen.Grow(n)
	s.slotMaps.grow(n)
	s.levelPos.Grow(n)
	if s.batched {
		s.enqMask.Grow(n)
		s.seenMask.Grow(n)
		s.waveLoaded.Grow(n)
		s.sharedAcc.Grow(n)
	}
	for _, m := range s.sssp {
		m.grow(n)
	}
}

// ssspMaps returns the j-th SSSP slot's maps, allocating on first use
// and resetting them for a fresh run.
func (s *Scratch) ssspMaps(j int) *slotMaps {
	if j == 0 {
		s.slotMaps.reset()
		return &s.slotMaps
	}
	for len(s.sssp) < j {
		m := &slotMaps{}
		m.grow(s.seen.Cap())
		s.sssp = append(s.sssp, m)
	}
	m := s.sssp[j-1]
	m.reset()
	return m
}

// Workspace is the reusable per-execution state of the traversal
// kernels: a dense Scratch, the Batch that runs BFS and SSSP as a
// batch of one, insertion-ordered side lists, and pooled Trace and
// Result scratch. A steady-state traversal through a warmed Workspace
// performs zero heap allocations.
//
// Ownership contract: the *Trace returned by a Workspace kernel, and
// the Recommendations/Ranking slices inside its Result, are owned by
// the Workspace and remain valid only until its next kernel call.
// Callers that retain a Result across executions must Clone it;
// callers that retain the Trace must copy its slices. The one-shot
// package functions (BFS, Execute, ...) allocate a private Workspace
// per call and are exempt — their outputs are never reused.
//
// Not safe for concurrent use; give each goroutine its own Workspace
// (the live runtime keeps one per unit).
type Workspace struct {
	scratch *Scratch

	// batch runs BFS and BoundedSSSP (as a batch of one, query one[0])
	// over scratch.
	batch Batch
	one   [1]Query

	// dirStats counts the last execution's direction decisions.
	dirStats DirStats

	// orderA/orderB are insertion-ordered compact side lists: the
	// deterministic iteration substrate that replaces map-range order
	// (CollabFilter buyers/products, RWR visit-count accumulation).
	orderA, orderB []graph.VertexID

	// Pooled outputs (see the ownership contract above).
	trace   Trace
	recs    []Recommendation
	ranking []Ranked

	// Reusable sorters: sort.Sort through a pointer field costs no
	// allocation, unlike sort.Slice's closure + reflect swapper.
	recSorter  recSorter
	rankSorter rankSorter
}

// NewWorkspace returns a Workspace with a private Scratch sized for
// graphs of numVertices.
func NewWorkspace(numVertices int) *Workspace {
	return NewWorkspaceWithScratch(NewScratch(numVertices))
}

// NewWorkspaceWithScratch returns a Workspace borrowing a shared
// Scratch. The caller must guarantee kernel executions across all
// Workspaces (and their Batches) sharing it never overlap (e.g. a
// single-threaded event loop); each Workspace still keeps private
// frontier/trace/result buffers, so outputs live independently of
// sibling executions.
func NewWorkspaceWithScratch(s *Scratch) *Workspace {
	return &Workspace{scratch: s, batch: Batch{scratch: s}}
}

// Batch returns the workspace's lockstep engine. It runs over the
// workspace's Scratch and owns the buffers BFS and BoundedSSSP return,
// so its Run outputs and the workspace's kernel outputs share one
// ownership window: valid until the next kernel call or Run on either.
func (ws *Workspace) Batch() *Batch { return &ws.batch }

// BFS runs the bounded-depth breadth-first search (see the package
// function BFS) as a batch of one.
//
//vet:hotpath
func (ws *Workspace) BFS(g *graph.Graph, q Query) (Result, *Trace) {
	ws.one[0] = q
	ws.one[0].Op = OpBFS
	return ws.single(g)
}

// BoundedSSSP runs the bounded bidirectional search (see the package
// function BoundedSSSP) as a batch of one.
//
//vet:hotpath
func (ws *Workspace) BoundedSSSP(g *graph.Graph, q Query) (Result, *Trace) {
	ws.one[0] = q
	ws.one[0].Op = OpSSSP
	return ws.single(g)
}

// single runs ws.one through the workspace's Batch as a batch of one.
// The query is trusted: ExecuteIn has validated it.
//
//vet:hotpath
func (ws *Workspace) single(g *graph.Graph) (Result, *Trace) {
	b := &ws.batch
	b.exec(g, ws.one[:])
	ws.dirStats = b.slots[0].stats
	return b.results[0], &b.traces[0]
}

// begin readies the workspace for one CollabFilter or RandomWalk run
// over g.
//
//vet:hotpath
func (ws *Workspace) begin(g *graph.Graph) {
	s := ws.scratch
	s.grow(g.NumVertices())
	s.seen.Clear()
	s.slotMaps.reset()
	ws.trace.Accesses = ws.trace.Accesses[:0]
	ws.trace.Touched = ws.trace.Touched[:0]
	ws.orderA = ws.orderA[:0]
	ws.orderB = ws.orderB[:0]
	ws.dirStats = DirStats{}
}

// DirStats returns the push/pull direction counters of the most recent
// kernel execution (zero for ops without direction choice). Valid
// until the next kernel call.
func (ws *Workspace) DirStats() DirStats { return ws.dirStats }

// touch appends a vertex record access to the pooled trace,
// deduplicating Touched through the dense seen-set, and returns the
// access index (mirrors Trace.touchVertex on map state).
//
//vet:hotpath
func (ws *Workspace) touch(g *graph.Graph, v graph.VertexID) int {
	t := &ws.trace
	t.Accesses = append(t.Accesses, Access{Vertex: v, Bytes: g.VertexBytes(v)})
	if ws.scratch.seen.Add(v) {
		t.Touched = append(t.Touched, v)
	}
	return len(t.Accesses) - 1
}

// recSorter orders recommendations best-first, product ID tie-break —
// the same total order CollabFilterReference sorts by, so any
// conforming sort yields identical output.
type recSorter struct{ s []Recommendation }

func (r *recSorter) Len() int      { return len(r.s) }
func (r *recSorter) Swap(i, j int) { r.s[i], r.s[j] = r.s[j], r.s[i] }
func (r *recSorter) Less(i, j int) bool {
	if r.s[i].Similarity != r.s[j].Similarity {
		return r.s[i].Similarity > r.s[j].Similarity
	}
	return r.s[i].Product < r.s[j].Product
}

// rankSorter orders RWR rankings best-first, vertex ID tie-break.
type rankSorter struct{ s []Ranked }

func (r *rankSorter) Len() int      { return len(r.s) }
func (r *rankSorter) Swap(i, j int) { r.s[i], r.s[j] = r.s[j], r.s[i] }
func (r *rankSorter) Less(i, j int) bool {
	if r.s[i].Score != r.s[j].Score {
		return r.s[i].Score > r.s[j].Score
	}
	return r.s[i].Vertex < r.s[j].Vertex
}
