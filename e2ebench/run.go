package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/e2ebench/oracle"
	"repro/internal/server"
)

// segments is how many parts a run is cut into. Each boots and loads
// the daemons afresh, which is one timed setup round (setup_s is the
// median), and then runs its share of the search schedule and of the
// join rounds. The cost of a freshly booted set of daemons differs from
// one boot to the next and then holds for the boot's life: a join
// round's CPU time by up to 20% either way, a search's by less. A run
// that pools fourteen boots, spread over its whole length, varies less
// from run to run than one that pools seven.
const segments = 14

// op is one HTTP request of a run, prepared before the clock starts
// and filled in as it runs.
type op struct {
	class int    // ring, hole, topk, batch; -1 for reloads and joins
	kind  string // "search", "reload" or "join"
	c     *corpus
	q     *query   // ring, hole and top-k searches
	items []*query // batch searches
	l     int      // chain length of a join
	// partner is the same query at the other chain length.
	partner *op
	path    string
	body    []byte
	trace   string // request id shared by the op's spans
	span    int    // traced runs: id of the op's root span
	due     time.Duration
	sent    time.Duration
	done    time.Duration
	// cpu is the daemons' CPU time while the op was in flight: searches,
	// which run on connection 1 (see cpuClock), and joins.
	cpu time.Duration
	// shared marks a search in flight beside a reload, whose CPU time
	// its cpu includes; CPU figures leave it out.
	shared bool
	resp   []byte
	err    error
	failed bool
	// known marks a search of a corpus's probe: it fails because of a
	// known fault, which counts it as failed but not as incorrect.
	known bool
}

func (o *op) latency() time.Duration { return o.done - o.due }

// wall is the time from sending the op to its answer.
func (o *op) wall() time.Duration { return o.done - o.sent }

// runState is everything one run builds and measures.
type runState struct {
	w       workload
	cfg     config
	dir     string
	corpora []*corpus
	byName  map[string]*corpus
	search  []*op
	reloads []*op
	joins   []*op   // in the order they are sent
	rounds  [][]*op // join rounds: every corpus at one chain length
	refs    []*op   // cluster: the ring join of every corpus sent straight to one replica
	segs    [segments]segment
	setupS  []float64
	readyS  []float64
	buildS  []float64
	indexMB float64
	rssMB   []float64 // per segment
	tr      *tracer
	cl      *cluster
	layer   map[string]float64 // per-layer metrics gathered during the run
	// metricDeltas sums, per daemon (the front first), the growth of
	// its /metrics counters over every segment's join rounds.
	metricDeltas []map[string]float64
}

// segment is one boot's share of a run: whole rounds of the search
// schedule, due from the segment's own start, the reloads beside them,
// the solo reloads after them, and whole pairs of join rounds.
type segment struct {
	search  []*op
	reloads []*op
	// solo are reloads sent one after another once the searches are
	// done, alone on the daemons, so that their CPU time is theirs;
	// soloCPU is the daemons' CPU time from the first solo reload until
	// soloSettle after the last.
	solo    []*op
	soloCPU time.Duration
	rounds  [][]*op
	length  time.Duration // of its search schedule
}

const (
	// soloReloads is how many solo reloads each segment sends.
	soloReloads = 3
	// soloSettle is long enough for a garbage collection a reload set
	// off to finish, so that its CPU time counts.
	soloSettle = 100 * time.Millisecond
)

func run(ctx context.Context, w workload, cfg config) (*result, error) {
	dir, err := os.MkdirTemp(cfg.dir, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s := &runState{w: w, cfg: cfg, dir: dir, byName: map[string]*corpus{}, layer: map[string]float64{}}
	if cfg.trace {
		s.tr = newTracer()
	}
	t0 := time.Now()
	s.prepare()
	logf("prepared %d searches, %d reloads, %d joins and the oracle's answers in %.1fs", len(s.search), len(s.reloads), len(s.joins)+len(s.refs), time.Since(t0).Seconds())
	defer func() {
		if s.cl != nil {
			s.cl.stop()
		}
	}()
	var searchT, joinT time.Duration
	for k := range s.segs {
		seg := &s.segs[k]
		if err := s.boot(ctx, k); err != nil {
			return nil, err
		}
		if err := s.snapshot(ctx, k == 0); err != nil {
			return nil, err
		}
		t0 = time.Now()
		if err := s.searchPhase(ctx, seg); err != nil {
			return nil, err
		}
		searchT += time.Since(t0)
		t0 = time.Now()
		if err := s.joinPhase(ctx, seg, k == len(s.segs)-1); err != nil {
			return nil, err
		}
		joinT += time.Since(t0)
		rss, err := s.cl.peakRSSMB()
		if err != nil {
			return nil, err
		}
		s.rssMB = append(s.rssMB, rss)
		s.cl.stop()
		s.cl = nil
	}
	logf("search phases %.1fs, join phases %.1fs", searchT.Seconds(), joinT.Seconds())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	wrong := s.check()
	s.report()
	res := &result{Correct: wrong == 0, Metrics: map[string]metric{}}
	for _, o := range s.allOps() {
		res.Attempted++
		if o.failed {
			res.Failed++
		}
	}
	if cfg.trace {
		if err := s.replay(ctx); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.jsonl", w.name, cfg.seed))
		if err := s.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s\n", path)
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{Value: s.layer[m.name], Unit: m.unit}
		}
	} else {
		s.endToEnd(res.Metrics)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				return nil, fmt.Errorf("%s read %v; a CPU time of 0 means the kernel keeps no per-thread run time in schedstat", name, m.Value)
			}
		}
	}
	return res, nil
}

// logf reports progress on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
}

func (s *runState) allOps() []*op {
	return slices.Concat(s.search, s.reloads, s.joins, s.refs)
}

// prepare generates the corpora, every request of the run and the
// oracle's answers, all from the seed.
func (s *runState) prepare() {
	w, seed := s.w, s.cfg.seed
	for _, spec := range w.corpora {
		c := generate(spec, seed)
		s.corpora = append(s.corpora, c)
		s.byName[spec.problem] = c
	}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var round time.Duration
	for _, m := range w.searches {
		for _, ch := range m.pattern {
			switch ch {
			case 'p', 'f':
				round += 2 * w.gap
			case 't':
				round += w.gap
			case 'b':
				round += w.batchGap
			}
		}
	}
	rounds := max(1, int(float64(s.cfg.seconds)*w.searchShare*float64(time.Second)/float64(round)))
	pairs := 0
	var clock time.Duration
	seg := &s.segs[0]
	add := func(o *op) {
		o.kind, o.path = "search", "/v1/search"
		o.due = clock
		clock += w.gap
		if o.class == batch {
			o.path = "/v1/search/batch"
			clock += w.batchGap - w.gap
		}
		s.search = append(s.search, o)
		seg.search = append(seg.search, o)
	}
	// closeSegment schedules the reloads beside seg's searches and
	// after them, and starts the next segment's clock.
	closeSegment := func() {
		reload := func(due time.Duration) *op {
			o := &op{class: -1, kind: "reload", c: s.corpora[0], path: "/v1/load", due: due,
				body: mustJSON(server.LoadRequest{Snapshot: s.corpora[0].spec.problem + ".snap"})}
			s.reloads = append(s.reloads, o)
			return o
		}
		for due := reloadEvery / 2; due < clock; due += reloadEvery {
			seg.reloads = append(seg.reloads, reload(due))
		}
		for i := 0; i < soloReloads; i++ {
			seg.solo = append(seg.solo, reload(0))
		}
		seg.length, clock = clock, 0
	}
	var solve []*query
	for r := 0; r < rounds; r++ {
		if k := r * segments / rounds; seg != &s.segs[k] {
			closeSegment()
			seg = &s.segs[k]
		}
		for _, m := range w.searches {
			p := m.problem
			c := s.byName[p]
			for _, ch := range m.pattern {
				switch ch {
				case 'p', 'f':
					q := c.object(c.spec.probe)
					if ch == 'p' {
						q = c.newQuery(rng)
					}
					solve = append(solve, q)
					first, second := ring, hole
					if pairs%2 == 1 {
						first, second = hole, ring
					}
					pairs++
					var two [2]*op
					for i, cl := range []int{first, second} {
						l := 0
						if cl == hole {
							l = 1
						}
						two[i] = &op{class: cl, c: c, q: q, known: ch == 'f', body: mustJSON(q.request(l, 0))}
						add(two[i])
					}
					two[0].partner, two[1].partner = two[1], two[0]
				case 't':
					q := c.newQuery(rng)
					solve = append(solve, q)
					add(&op{class: topk, c: c, q: q, body: mustJSON(q.request(0, topK))})
				case 'b':
					o := &op{class: batch, c: c}
					req := server.BatchRequest{Problem: p}
					if c.spec.searchTau > 0 {
						t := float64(c.spec.searchTau)
						req.Tau = &t
					}
					for i := 0; i < batchSize; i++ {
						id := rng.Intn(c.spec.n)
						req.QueryIDs = append(req.QueryIDs, id)
						q := c.object(id)
						o.items = append(o.items, q)
						solve = append(solve, q)
					}
					o.body = mustJSON(req)
					add(o)
				}
			}
		}
	}
	closeSegment()
	joinPairs := max(1, int(math.Round(float64(s.cfg.seconds)*(1-w.searchShare)/w.pairSeconds)))
	for p := 0; p < joinPairs; p++ {
		ls := []int{0, 1}
		if p%2 == 1 {
			ls = []int{1, 0}
		}
		for _, l := range ls {
			var round []*op
			for _, c := range s.corpora {
				o := &op{class: -1, kind: "join", c: c, l: l, path: "/v1/join",
					body: mustJSON(server.JoinRequest{Problem: c.spec.problem, L: l})}
				round = append(round, o)
				s.joins = append(s.joins, o)
			}
			s.rounds = append(s.rounds, round)
			s.segs[p*segments/joinPairs].rounds = append(s.segs[p*segments/joinPairs].rounds, round)
		}
	}
	// A cluster's ring joins are also sent straight to one replica, in
	// three rounds in the last segment: the answers must agree, and
	// traced runs time the coordinator's overhead against them. Traced
	// runs send the same operations as the others, so their failed
	// share is the same.
	direct := 0
	if w.replicas > 0 {
		direct = 3
	}
	for r := 0; r < direct; r++ {
		for _, c := range s.corpora {
			s.refs = append(s.refs, &op{class: -1, kind: "join", c: c, path: "/v1/join",
				body: mustJSON(server.JoinRequest{Problem: c.spec.problem})})
		}
	}
	for i, o := range s.allOps() {
		o.trace = fmt.Sprintf("%s-%d-%d", s.w.name, s.cfg.seed, i)
	}
	s.solve(solve)
}

// solve runs the oracle over every corpus's self-join and every
// distinct query, on two goroutines. A corpus object searched at the
// built τ is answered from the self-join: itself plus its partners.
func (s *runState) solve(qs []*query) {
	const workers = 2
	for _, c := range s.corpora {
		c.pairs = c.selfJoin(workers)
	}
	top := map[*query]bool{}
	for _, o := range s.search {
		if o.class == topk {
			top[o.q] = true
		}
	}
	seen := map[*query]bool{}
	var uniq []*query
	for _, q := range qs {
		if seen[q] {
			continue
		}
		seen[q] = true
		if q.c.byID[q.source] == q && q.c.pairs != nil && q.c.searchTau() == q.c.spec.tau {
			q.exp = q.c.partners(q.source)
			continue
		}
		uniq = append(uniq, q)
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(uniq); i += workers {
				uniq[i].solve(top[uniq[i]])
			}
		}(wk)
	}
	wg.Wait()
}

// partners returns id and every object the self-join pairs it with,
// ascending.
func (c *corpus) partners(id int) []int64 {
	if c.adj == nil {
		c.adj = map[int64][]int64{}
		for _, p := range c.pairs {
			c.adj[p[0]] = append(c.adj[p[0]], p[1])
			c.adj[p[1]] = append(c.adj[p[1]], p[0])
		}
	}
	out := append([]int64{int64(id)}, c.adj[int64(id)]...)
	slices.Sort(out)
	return out
}

// selfJoin is the oracle's all-pairs answer at the built τ; nil for
// graphs.
func (c *corpus) selfJoin(workers int) [][2]int64 {
	tau := int(c.spec.tau)
	switch c.spec.problem {
	case "hamming":
		return oracle.SelfJoin(c.spec.n, workers, nil, nil, func(i, j int) bool {
			return oracle.Hamming(c.vecs[i].Words(), c.vecs[j].Words()) <= tau
		})
	case "set":
		sets := make([][]int32, len(c.sets))
		for i, s := range c.sets {
			sets[i] = s
		}
		return oracle.JaccardJoin(sets, setTauNum, setTauDen, workers)
	case "string":
		return oracle.SelfJoin(c.spec.n, workers, c.size, func(s int) int { return s + tau }, func(i, j int) bool {
			return oracle.EditDistanceWithin(c.strs[i], c.strs[j], tau) >= 0
		})
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are marshalled
	}
	return b
}

// boot starts and loads segment k's daemons, timing them from launch
// to a 200 from /v1/readyz.
func (s *runState) boot(ctx context.Context, k int) error {
	sub := filepath.Join(s.dir, fmt.Sprintf("segment%d", k))
	start := time.Now()
	cl, err := startCluster(ctx, s.cfg.bin, sub, s.w.replicas)
	if err != nil {
		return err
	}
	s.cl = cl
	s.readyS = append(s.readyS, time.Since(start).Seconds())
	c := newConn()
	for _, cp := range s.corpora {
		var lr server.LoadResponse
		if err := c.postJSON(ctx, cl.front.url+"/v1/load", cp.loadRequest(s.cfg.seed), &lr); err != nil {
			return fmt.Errorf("loading %s: %w", cp.spec.problem, err)
		}
		s.buildS = append(s.buildS, lr.BuildMS/1e3)
	}
	for {
		if _, err := c.get(ctx, cl.front.url+"/v1/readyz"); err == nil {
			break
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	s.setupS = append(s.setupS, time.Since(start).Seconds())
	return nil
}

// snapshot writes every index's snapshot container, which the reloads
// read; the first segment's sizes add up to index_mb.
func (s *runState) snapshot(ctx context.Context, first bool) error {
	c := newConn()
	for _, cp := range s.corpora {
		var sr server.SnapshotResponse
		if err := c.postJSON(ctx, s.cl.front.url+"/v1/snapshot", server.SnapshotRequest{Problem: cp.spec.problem}, &sr); err != nil {
			return fmt.Errorf("snapshot of %s: %w", cp.spec.problem, err)
		}
		if first {
			s.indexMB += float64(sr.Bytes) / 1e6
		}
	}
	return nil
}

// searchPhase runs the search schedule on one connection: each search
// is sent at its due time, or once the answer before it has arrived if
// that is later, and its latency counts from when it was due, so time
// queued behind a slow answer is part of it. Reloads run on the second
// connection on their own schedule. The solo reloads follow on the
// first. Every search has its CPU time read, and so has the block of
// solo reloads as a whole.
func (s *runState) searchPhase(ctx context.Context, seg *segment) error {
	clk := newCPUClock(s.cl)
	defer clk.close()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.drive(ctx, newConn(), start, seg.reloads, nil)
	}()
	c := newConn()
	err := s.drive(ctx, c, start, seg.search, clk)
	wg.Wait()
	if err == nil {
		err = clk.start()
	}
	if err == nil {
		s.drive(ctx, c, time.Now(), seg.solo, nil)
		time.Sleep(soloSettle)
		seg.soloCPU, err = clk.stop()
	}
	for _, o := range seg.search {
		for _, r := range seg.reloads {
			if o.sent < r.done && r.sent < o.done {
				o.shared = true
			}
		}
	}
	if err != nil {
		return fmt.Errorf("reading the daemons' CPU time: %w", err)
	}
	return ctx.Err()
}

// spinMargin is how early drive stops sleeping and starts polling the
// clock: timer wake-ups land about 0.6 ms late (p90 1 ms), which would
// otherwise show up in every latency measured from the due time.
const spinMargin = 1200 * time.Microsecond

// drive sends ops in order, each no earlier than its due time. With
// a clock, it reads each op's CPU time too, starting before the op is
// due, while the daemons are idle, so the reads do not delay it.
func (s *runState) drive(ctx context.Context, c *conn, start time.Time, ops []*op, clk *cpuClock) error {
	for _, o := range ops {
		due := start.Add(o.due)
		if d := time.Until(due) - spinMargin; d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil
			}
		}
		if clk != nil {
			if err := clk.start(); err != nil {
				return err
			}
		}
		for time.Now().Before(due) {
		}
		s.send(ctx, c, start, o)
		if clk != nil {
			var err error
			if o.cpu, err = clk.stop(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *runState) send(ctx context.Context, c *conn, start time.Time, o *op) {
	id := ""
	if s.tr != nil {
		id = o.trace
	}
	o.sent = time.Since(start)
	o.resp, o.err = c.post(ctx, s.cl.front.url+o.path, o.body, id)
	o.done = time.Since(start)
	if s.tr != nil {
		o.span = s.tr.add(o.trace, 0, "http."+o.name(), start.Add(o.sent), start.Add(o.done))
	}
}

func (o *op) name() string {
	if o.kind == "search" {
		return classNames[o.class] + "." + o.c.spec.problem
	}
	if o.kind == "join" {
		return fmt.Sprintf("join.l%d.%s", o.l, o.c.spec.problem)
	}
	return o.kind + "." + o.c.spec.problem
}

// joinPhase runs the closed loop of a segment's join rounds, each round
// joining every corpus in turn at one chain length, ring and hole
// rounds alternating which goes first, and reads each join's CPU time.
// The last segment then sends the rounds straight to one replica.
func (s *runState) joinPhase(ctx context.Context, seg *segment, last bool) error {
	c := newConn()
	var before [][]byte
	if s.tr != nil && s.w.replicas > 0 {
		before = s.scrape(ctx, c)
	}
	clk := newCPUClock(s.cl)
	defer clk.close()
	start := time.Now()
	for _, round := range seg.rounds {
		for _, o := range round {
			if err := clk.start(); err != nil {
				return fmt.Errorf("reading the daemons' CPU time: %w", err)
			}
			s.send(ctx, c, start, o)
			var err error
			if o.cpu, err = clk.stop(); err != nil {
				return fmt.Errorf("reading the daemons' CPU time: %w", err)
			}
		}
	}
	if s.tr != nil && s.w.replicas > 0 {
		s.addMetricDeltas(before, s.scrape(ctx, c))
	}
	if !last {
		return ctx.Err()
	}
	var directS []float64
	for i := 0; i < len(s.refs); i += len(s.corpora) {
		round := s.refs[i : i+len(s.corpora)]
		for _, o := range round {
			o.sent = time.Since(start)
			o.resp, o.err = c.post(ctx, s.cl.replicas[0].url+o.path, o.body, "")
			o.done = time.Since(start)
		}
		directS = append(directS, (round[len(round)-1].done - round[0].sent).Seconds())
	}
	if s.tr != nil && len(directS) > 0 {
		s.layer["cluster.overhead_s"] = median(s.roundSeconds(0)) - median(directS)
	}
	return ctx.Err()
}

// roundCPUSeconds returns the daemons' CPU time in every join round at
// chain length l (0 or 1).
func (s *runState) roundCPUSeconds(l int) []float64 {
	var out []float64
	for _, r := range s.rounds {
		if r[0].l != l {
			continue
		}
		var cpu time.Duration
		for _, o := range r {
			cpu += o.cpu
		}
		out = append(out, cpu.Seconds())
	}
	return out
}

// roundSeconds returns the wall time of every join round at chain
// length l (0 or 1).
func (s *runState) roundSeconds(l int) []float64 {
	var out []float64
	for _, r := range s.rounds {
		if r[0].l != l {
			continue
		}
		out = append(out, (r[len(r)-1].done - r[0].sent).Seconds())
	}
	return out
}
