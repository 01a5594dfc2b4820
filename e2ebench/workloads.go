package main

import (
	"math/rand"
	"slices"
	"time"

	"repro/e2ebench/oracle"
	"repro/internal/bitvec"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/server"
	"repro/internal/tokenset"
)

// Operation classes. ring and hole are the same query at the
// recommended chain length and at l=1.
const (
	ring = iota
	hole
	topk
	batch
	nClasses
)

var classNames = [nClasses]string{"ring", "hole", "topk", "batch"}

const (
	topK      = 10 // k of every top-k search
	batchSize = 16 // query ids per batch request
	// setTauNum/setTauDen is the Jaccard threshold 0.8 as an exact
	// fraction for the oracle.
	setTauNum, setTauDen = 4, 5
)

// corpusSpec is one index a workload loads.
type corpusSpec struct {
	problem string
	n       int
	tau     float64 // the build threshold sent to /v1/load
	// searchTau is sent as "tau" with every hamming search: the
	// threshold of ring, hole and batch searches and the ceiling of
	// top-k, which would otherwise be the vector dimension. The
	// index's built τ stays the join threshold. Other problems leave
	// it 0 and search at their built τ.
	searchTau int
	// seed, when set, fixes the corpus's generator seed, whatever the
	// run's seed. Such a corpus is searched with its own objects as
	// queries, each of which has been checked against the oracle.
	seed int64
	// probe, when set, is a corpus object whose search is known to miss
	// a partner (see CHANGES.md). The 'f' pattern searches it every
	// round; its failures are counted, but do not make a run incorrect.
	probe int
}

// workload is one traffic mix. Every workload runs every operation
// class, in each segment: searches on a fixed schedule (ring/hole
// pairs, top-k and batch searches, with snapshot reloads on a second
// connection), then a closed loop of ring and hole join rounds over
// every corpus.
type workload struct {
	name     string
	replicas int // 0: one daemon; otherwise a coordinator over this many replicas
	corpora  []corpusSpec
	// searches lists the problems that receive search traffic, each
	// with the pattern one round of the schedule runs for it: 'p' a
	// ring/hole pair on one fresh query, 't' a top-k search on a fresh
	// query, 'b' a batch of corpus ids, 'f' a ring/hole pair on the
	// corpus's probe.
	searches []searchMix
	// gap is the time from one search's due time to the next; after a
	// batch it is batchGap. Each is about twice the operation's usual
	// latency: a request rarely waits for the one before it, and the
	// CPUs stay busy enough that idle wake-ups, whose cost swings widely
	// on a shared host, do not dominate the latencies.
	gap, batchGap time.Duration
	// searchShare is the share of the run spent in the search phase;
	// the rest is the join phase.
	searchShare float64
	// pairSeconds is the expected wall time of one ring + hole join
	// round pair; the number of pairs follows from it and the run
	// length, never from the clock, so every run attempts the same
	// operations.
	pairSeconds float64
}

// reloadEvery is the period of the search phase's snapshot reloads,
// which reload a workload's first corpus.
const reloadEvery = 500 * time.Millisecond

type searchMix struct{ problem, pattern string }

var workloads = []workload{
	{
		name:        "search-hamming",
		corpora:     []corpusSpec{{problem: "hamming", n: 10000, tau: 24, searchTau: 64}},
		searches:    []searchMix{{"hamming", "ptpbpt"}},
		gap:         6 * time.Millisecond,
		batchGap:    20 * time.Millisecond,
		searchShare: 0.45,
		pairSeconds: 1.3,
	},
	{
		name:     "join-cluster",
		replicas: 2,
		corpora: []corpusSpec{
			{problem: "hamming", n: 8000, tau: 24, searchTau: 24},
			{problem: "set", n: 10000, tau: 0.8},
			{problem: "string", n: 10000, tau: 2, seed: 13, probe: 45},
			{problem: "graph", n: 300, tau: 3},
		},
		// Hamming and set searches take about the same time in every
		// class, so no p50 falls in a gap between problems. Graph top-k
		// and batch searches take twice as long or more, which put the
		// p50 of those classes on the edge of the faster group, so graph
		// sends ring/hole pairs only. A string search misses a partner
		// at edit distance τ on rare corpora (see CHANGES.md); on this
		// fixed corpus exactly one object does, at every chain length,
		// so its pair fails in every round and every other object's
		// pair passes, whatever the run's seed.
		searches:    []searchMix{{"hamming", "ptb"}, {"set", "ptb"}, {"graph", "p"}, {"string", "pf"}},
		gap:         3 * time.Millisecond,
		batchGap:    12 * time.Millisecond,
		searchShare: 0.35,
		pairSeconds: 2.6,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpus is one generated dataset, in the forms the requests, the
// oracle and the in-process replays need.
type corpus struct {
	spec   corpusSpec
	vecs   []bitvec.Vector
	sets   []tokenset.Set
	strs   []string
	graphs []*graph.Graph
	og     []oracle.Graph
	size   []int // set or string sizes, for the oracle's size windows
	order  []int // corpus ids sorted by size
	byID   map[int]*query
	// pairs is the brute-force self-join at the built τ (nil for graph).
	pairs [][2]int64
	same  [][2]int64 // graph: pairs of identical graphs, filled on first use
	adj   map[int64][]int64
}

// query is one search payload together with what the oracle expects
// of it. Graph queries carry their provenance instead: a corpus graph
// and the number of edits applied to it.
type query struct {
	c      *corpus
	eq     engine.Query
	exp    []int64         // threshold answer at the search τ
	expTop []oracle.Result // top-k answer
	source int             // graph: the corpus graph the query was made from
	edits  int             // graph: edits applied to it, an upper bound on their distance
	og     oracle.Graph    // graph: the query in oracle form
}

// generate builds a corpus from the same generator and seed /v1/load
// receives.
func generate(spec corpusSpec, seed int64) *corpus {
	c := &corpus{spec: spec, byID: map[int]*query{}}
	if spec.seed != 0 {
		seed = spec.seed
	}
	switch spec.problem {
	case "hamming":
		c.vecs = dataset.GIST(spec.n, seed)
	case "set":
		c.sets = dataset.DBLP(spec.n, seed)
		for _, s := range c.sets {
			c.size = append(c.size, len(s))
		}
	case "string":
		c.strs = dataset.IMDB(spec.n, seed)
		for _, s := range c.strs {
			c.size = append(c.size, len(s))
		}
	case "graph":
		c.graphs = dataset.AIDS(spec.n, seed)
		for _, g := range c.graphs {
			c.og = append(c.og, toOracleGraph(g))
		}
	}
	if c.size != nil {
		c.order = make([]int, len(c.size))
		for i := range c.order {
			c.order[i] = i
		}
		slices.SortStableFunc(c.order, func(a, b int) int { return c.size[a] - c.size[b] })
	}
	return c
}

func (c *corpus) loadRequest(seed int64) server.LoadRequest {
	tau := c.spec.tau
	if c.spec.seed != 0 {
		seed = c.spec.seed
	}
	req := server.LoadRequest{Problem: c.spec.problem, N: c.spec.n, Seed: seed, Tau: &tau}
	if c.spec.problem == "hamming" {
		req.M = 16
	}
	return req
}

func toOracleGraph(g *graph.Graph) oracle.Graph {
	og := oracle.Graph{Labels: make([]int32, g.N())}
	for v := range og.Labels {
		og.Labels[v] = g.VertexLabel(v)
	}
	for _, e := range g.Edges() {
		u, v := min(e.U, e.V), max(e.U, e.V)
		og.Edges = append(og.Edges, [3]int{u, v, int(e.Label)})
	}
	return og
}

func toGraphSpec(og oracle.Graph) *server.GraphSpec {
	return &server.GraphSpec{N: len(og.Labels), VertexLabels: og.Labels, Edges: og.Edges}
}

func fromOracleGraph(og oracle.Graph) *graph.Graph {
	g := graph.New(len(og.Labels))
	for v, l := range og.Labels {
		g.SetVertexLabel(v, l)
	}
	for _, e := range og.Edges {
		g.AddEdge(e[0], e[1], int32(e[2]))
	}
	return g
}

// newQuery draws a query near a random corpus object: a vector with a
// few flipped bits, a set with a token swapped, a string with up to τ
// edits, a graph with up to τ edits. A corpus of fixed seed gives one
// of its own objects other than its probe instead.
func (c *corpus) newQuery(rng *rand.Rand) *query {
	src := rng.Intn(c.spec.n)
	if c.spec.seed != 0 {
		for src == c.spec.probe {
			src = rng.Intn(c.spec.n)
		}
		return c.object(src)
	}
	q := &query{c: c, source: src}
	switch c.spec.problem {
	case "hamming":
		v := c.vecs[src].Clone()
		for f := rng.Intn(25); f > 0; f-- {
			v.Flip(rng.Intn(v.Dim()))
		}
		q.eq = engine.VectorQuery(v)
	case "set":
		s := slices.Clone(c.sets[src])
		if rng.Intn(2) == 0 && len(s) > 1 {
			i := rng.Intn(len(s))
			s = slices.Delete(s, i, i+1)
		}
		if rng.Intn(2) == 0 {
			// A token from another set keeps ids inside the corpus's
			// frequency-rank space.
			o := c.sets[rng.Intn(len(c.sets))]
			t := o[rng.Intn(len(o))]
			if i, found := slices.BinarySearch(s, t); !found {
				s = slices.Insert(s, i, t)
			}
		}
		q.eq = engine.SetQuery(s)
	case "string":
		b := []byte(c.strs[src])
		for e := rng.Intn(int(c.spec.tau) + 1); e > 0; e-- {
			other := c.strs[rng.Intn(len(c.strs))]
			ch := other[rng.Intn(len(other))]
			op := rng.Intn(3)
			if len(b) < 2 {
				op = 0
			}
			switch op {
			case 0:
				b = slices.Insert(b, rng.Intn(len(b)+1), ch)
			case 1:
				i := rng.Intn(len(b))
				b = slices.Delete(b, i, i+1)
			default:
				b[rng.Intn(len(b))] = ch
			}
		}
		q.eq = engine.StringQuery(string(b))
	case "graph":
		og := editGraph(rng, c.og[src], int(c.spec.tau), &q.edits)
		q.og = og
		q.eq = engine.GraphQuery(fromOracleGraph(og))
	}
	return q
}

// editGraph applies up to tau unit edits (vertex relabel, edge
// deletion, edge insertion) to a copy of g, counting them in *edits.
func editGraph(rng *rand.Rand, g oracle.Graph, tau int, edits *int) oracle.Graph {
	out := oracle.Graph{Labels: slices.Clone(g.Labels), Edges: slices.Clone(g.Edges)}
	n := len(out.Labels)
	for e := rng.Intn(tau + 1); e > 0; e-- {
		switch rng.Intn(3) {
		case 0:
			out.Labels[rng.Intn(n)] = int32(rng.Intn(62))
		case 1:
			if len(out.Edges) > 1 {
				i := rng.Intn(len(out.Edges))
				out.Edges = slices.Delete(out.Edges, i, i+1)
			}
		default:
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || slices.ContainsFunc(out.Edges, func(x [3]int) bool {
				return x[0] == min(u, v) && x[1] == max(u, v)
			}) {
				continue
			}
			out.Edges = append(out.Edges, [3]int{min(u, v), max(u, v), rng.Intn(3)})
		}
		*edits++
	}
	return out
}

// object returns the query record of corpus object id, as a batch
// item asks it.
func (c *corpus) object(id int) *query {
	if q, ok := c.byID[id]; ok {
		return q
	}
	q := &query{c: c, source: id}
	switch c.spec.problem {
	case "hamming":
		q.eq = engine.VectorQuery(c.vecs[id])
	case "set":
		q.eq = engine.SetQuery(c.sets[id])
	case "string":
		q.eq = engine.StringQuery(c.strs[id])
	case "graph":
		q.og = c.og[id]
		q.eq = engine.GraphQuery(c.graphs[id])
	}
	c.byID[id] = q
	return q
}

// searchTau is the threshold of the corpus's searches.
func (c *corpus) searchTau() float64 {
	if c.spec.searchTau > 0 {
		return float64(c.spec.searchTau)
	}
	return c.spec.tau
}

// request builds the /v1/search body of a query.
func (q *query) request(l, k int) server.SearchRequest {
	c := q.c
	req := server.SearchRequest{Problem: c.spec.problem, L: l, K: k}
	if c.spec.searchTau > 0 {
		t := float64(c.spec.searchTau)
		req.Tau = &t
	}
	switch c.spec.problem {
	case "hamming":
		req.Vector = q.eq.Vector().String()
	case "set":
		req.Set = q.eq.Set()
	case "string":
		s := q.eq.Text()
		req.String = &s
	case "graph":
		req.Graph = toGraphSpec(q.og)
	}
	return req
}

// solve fills in the oracle's answers for q: the threshold result at
// the search τ and the k nearest within it. Graph queries are left to
// the property checks.
func (q *query) solve(top bool) {
	c := q.c
	tau := c.searchTau()
	var dist func(i int) (float64, bool)
	lo, hi := 0, c.spec.n
	var order []int
	switch c.spec.problem {
	case "hamming":
		qw := q.eq.Vector().Words()
		t := int(tau)
		dist = func(i int) (float64, bool) {
			d := oracle.Hamming(c.vecs[i].Words(), qw)
			return float64(d), d <= t
		}
	case "set":
		qs := q.eq.Set()
		dist = func(i int) (float64, bool) {
			if !oracle.JaccardAtLeast(c.sets[i], qs, setTauNum, setTauDen) {
				return 0, false
			}
			return oracle.JaccardDistance(c.sets[i], qs), true
		}
		// J ≥ num/den bounds a partner's size to [|q|·num/den, |q|·den/num].
		order, lo, hi = c.sizeWindow(len(qs)*setTauNum/setTauDen, len(qs)*setTauDen/setTauNum)
	case "string":
		qs := q.eq.Text()
		t := int(tau)
		dist = func(i int) (float64, bool) {
			d := oracle.EditDistanceWithin(c.strs[i], qs, t)
			return float64(d), d >= 0
		}
		order, lo, hi = c.sizeWindow(len(qs)-t, len(qs)+t)
	default:
		return
	}
	var within []oracle.Result
	visit := func(i int) {
		if d, ok := dist(i); ok {
			within = append(within, oracle.Result{ID: int64(i), Distance: d})
		}
	}
	if order == nil {
		for i := lo; i < hi; i++ {
			visit(i)
		}
	} else {
		for _, i := range order[lo:hi] {
			visit(i)
		}
	}
	q.exp = make([]int64, len(within))
	for i, r := range within {
		q.exp[i] = r.ID
	}
	slices.Sort(q.exp)
	if top {
		q.expTop = oracle.Nearest(within, topK)
	}
}

// sizeWindow returns the corpus ids sorted by size and the index range
// of those whose size lies in [lo, hi].
func (c *corpus) sizeWindow(lo, hi int) ([]int, int, int) {
	a, _ := slices.BinarySearchFunc(c.order, lo, func(id, s int) int { return c.size[id] - s })
	b, _ := slices.BinarySearchFunc(c.order, hi+1, func(id, s int) int { return c.size[id] - s })
	return c.order, a, b
}
