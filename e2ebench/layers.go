package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/hamming"
	"repro/internal/server"
	"repro/internal/setsim"
	"repro/internal/strdist"
)

// The traced run's per-layer metrics. A layer a workload does not
// exercise (a backend it holds no corpus for, the cluster layer of a
// single daemon) reports 0.

type layerMetric struct{ name, unit string }

var backends = []string{"hamming", "setsim", "strdist", "graph"}

// backendOf names the module that serves a problem.
var backendOf = map[string]string{"hamming": "hamming", "set": "setsim", "string": "strdist", "graph": "graph"}

var layerMetrics = func() []layerMetric {
	var out []layerMetric
	add := func(name, unit string) { out = append(out, layerMetric{name, unit}) }
	for _, c := range classNames {
		add("server."+c+".overhead_ms", "ms")
	}
	add("server.request_bytes", "bytes")
	add("server.response_bytes", "bytes")
	for _, c := range classNames {
		add("engine."+c+".search_ms", "ms")
	}
	add("engine.topk.rungs", "count")
	add("engine.topk.candidates", "count")
	add("engine.join.tiles", "count")
	add("engine.join.tile_ms_p50", "ms")
	add("engine.join.tile_ms_max", "ms")
	add("engine.join.sort_ms", "ms")
	add("engine.join.pairs", "count")
	for _, b := range backends {
		for _, m := range []string{"ring", "hole"} {
			add(b+"."+m+".filter_ms", "ms")
			add(b+"."+m+".verify_ms", "ms")
			add(b+"."+m+".candidates", "count")
			add(b+"."+m+".probes", "count")
			add(b+"."+m+".box_checks", "count")
			add(b+"."+m+".precision", "ratio")
		}
	}
	for _, b := range backends {
		for _, m := range []string{"ring", "hole"} {
			add(b+".join."+m+".candidates", "count")
			add(b+".join."+m+".box_checks", "count")
		}
	}
	add("snapshot.open_ms", "ms")
	add("snapshot.write_ms", "ms")
	add("snapshot.bytes", "bytes")
	add("cluster.tiles", "count")
	add("cluster.tile_retries", "count")
	add("cluster.overhead_s", "s")
	add("cluster.replica_busy_s", "s")
	add("cluster.replica_skew", "ratio")
	add("setup.build_s", "s")
	add("setup.ready_s", "s")
	return out
}()

// replaySample bounds how many operations of each class and problem
// the traced run replays in process.
const replaySample = 100

// local is an in-process index built from the same corpus and
// parameters as the daemon's: the backend DB and the engine index
// wrapping it.
type local struct {
	c   *corpus
	ix  engine.Index
	ham *hamming.DB
	set *setsim.PKWiseDB
	str *strdist.DB
	gr  *graph.DB
}

func buildLocal(c *corpus) (*local, error) {
	b := &local{c: c}
	var err error
	tau := c.spec.tau
	switch c.spec.problem {
	case "hamming":
		if b.ham, err = hamming.NewDB(c.vecs, 16); err == nil {
			b.ix, err = engine.NewHamming(b.ham, int(tau))
		}
	case "set":
		if b.set, err = setsim.NewPKWiseDB(c.sets, setsim.Config{Measure: setsim.Jaccard, Tau: tau, M: 5}); err == nil {
			b.ix, err = engine.NewSet(b.set)
		}
	case "string":
		var dict *strdist.GramDict
		if dict, err = strdist.BuildGramDict(c.strs, 2); err == nil {
			if b.str, err = strdist.NewDB(c.strs, dict, int(tau)); err == nil {
				b.ix, err = engine.NewString(b.str)
			}
		}
	case "graph":
		if b.gr, err = graph.NewDB(c.graphs, int(tau)); err == nil {
			b.ix, err = engine.NewGraph(b.gr)
		}
	}
	return b, err
}

// recommendedL is the chain length the engine picks when a request
// omits l (the paper's per-problem recommendation, §8).
func (b *local) recommendedL() int {
	switch b.c.spec.problem {
	case "hamming":
		return 6
	case "set":
		return 2
	case "string":
		return min(3, int(b.c.spec.tau)+1)
	}
	return max(1, int(b.c.spec.tau)-1)
}

// backendStats are one backend call's counters.
type backendStats struct{ cand, probes, boxes, results int }

// backendSearch calls the backend module directly, at chain length l
// (1 = the pigeonhole baseline), optionally stopping after filtering.
func (b *local) backendSearch(q *query, l int, skip bool) (backendStats, error) {
	switch b.c.spec.problem {
	case "hamming":
		opt := hamming.GPHOptions()
		if l > 1 {
			opt = hamming.RingOptions(l)
		}
		opt.SkipVerify = skip
		_, st, err := b.ham.Search(q.eq.Vector(), int(b.c.searchTau()), opt)
		return backendStats{st.Candidates, st.Probes, st.BoxChecks, st.Results}, err
	case "set":
		var st setsim.Stats
		dst, err := b.set.SearchRangeAppend(q.eq.Set(), l, skip, 0, b.set.Len(), nil, &st)
		return backendStats{st.Candidates, st.Probes, st.BoxChecks, len(dst)}, err
	case "string":
		opt := strdist.PivotalOptions()
		if l > 1 {
			opt = strdist.RingOptions(l)
		}
		opt.SkipVerify = skip
		_, st, err := b.str.Search(q.eq.Text(), opt)
		return backendStats{st.Cand2 + st.Fallback, st.Probes, st.BoxChecks, st.Results}, err
	default:
		opt := graph.ParsOptions()
		if l > 1 {
			opt = graph.RingOptions(l)
		}
		opt.SkipVerify = skip
		_, st, err := b.gr.Search(q.eq.Graph(), opt)
		return backendStats{st.Candidates, 0, st.BoxChecks, st.Results}, err
	}
}

// hooks returns engine hooks that record stage and tile spans as
// children of parent, and collect tile durations and the sort span.
func (s *runState) hooks(trace string, parent int, tiles *[]float64, sortMS *float64) *engine.Hooks {
	return &engine.Hooks{
		Stage: func(st engine.Stage, d time.Duration) {
			now := time.Now()
			s.tr.add(trace, parent, "engine.stage."+string(st), now.Add(-d), now)
			if st == engine.StageSort && sortMS != nil {
				*sortMS += ms(d)
			}
		},
		Tile: func(_, _, _, _ int, d time.Duration, _ engine.Stats) {
			now := time.Now()
			s.tr.add(trace, parent, "engine.tile", now.Add(-d), now)
			if tiles != nil {
				s.tr.mu.Lock()
				*tiles = append(*tiles, ms(d))
				s.tr.mu.Unlock()
			}
		},
	}
}

// replay derives the per-layer metrics: the server layer from the HTTP
// responses, the engine, backend and snapshot layers from in-process
// replays of the same queries and joins, the setup layer from the
// loads.
func (s *runState) replay(ctx context.Context) error {
	s.serverLayer()
	s.clusterLayer()
	locals := map[*corpus]*local{}
	for _, c := range s.corpora {
		b, err := buildLocal(c)
		if err != nil {
			return fmt.Errorf("building the in-process %s index: %w", c.spec.problem, err)
		}
		locals[c] = b
	}
	if err := s.searchLayers(ctx, locals); err != nil {
		return err
	}
	if err := s.joinLayers(ctx, locals); err != nil {
		return err
	}
	if err := s.snapshotLayer(locals); err != nil {
		return err
	}
	s.layer["setup.build_s"] = mean(s.buildS)
	s.layer["setup.ready_s"] = median(s.readyS)
	return nil
}

// serverLayer splits each request's client latency into the engine's
// own wall time, as the response reports it, and the rest.
func (s *runState) serverLayer() {
	var req, resp []float64
	for c := 0; c < nClasses; c++ {
		var over []float64
		for _, o := range s.classOps(c) {
			if o.failed {
				continue
			}
			req = append(req, float64(len(o.body)))
			resp = append(resp, float64(len(o.resp)))
			engineMS := 0.0
			if c == batch {
				var br server.BatchResponse
				if json.Unmarshal(o.resp, &br) != nil {
					continue
				}
				// Batch items run on the daemon's workers at once.
				for _, it := range br.Results {
					engineMS += float64(it.Stats.WallNS) / 1e6 / daemonWorkers
				}
			} else {
				var sr struct {
					Stats engine.Stats `json:"stats"`
				}
				if json.Unmarshal(o.resp, &sr) != nil {
					continue
				}
				engineMS = float64(sr.Stats.WallNS) / 1e6
			}
			over = append(over, ms(o.wall())-engineMS)
			s.daemonEngineSpan(o, engineMS)
		}
		s.layer["server."+classNames[c]+".overhead_ms"] = median(over)
	}
	s.layer["server.request_bytes"] = mean(req)
	s.layer["server.response_bytes"] = mean(resp)
}

// daemonEngineSpan records the engine time the daemon reports for a
// request as a child of its HTTP span, so the HTTP span's self time is
// the server overhead. The response says how long the engine ran, not
// when, so the span is placed to end where the request ended.
func (s *runState) daemonEngineSpan(o *op, engineMS float64) {
	s.tr.mu.Lock()
	end := s.tr.t0.Add(time.Duration(s.tr.spans[o.span-1].End))
	s.tr.mu.Unlock()
	s.tr.add(o.trace, o.span, "daemon.engine", end.Add(-time.Duration(engineMS*1e6)), end)
}

// searchLayers replays a sample of each class's searches through the
// engine and, for ring and hole searches, through the backend module
// twice: filter only, then in full.
func (s *runState) searchLayers(ctx context.Context, locals map[*corpus]*local) error {
	type acc struct {
		filter, full []float64
		st           backendStats
		n            int
	}
	engineMS := map[int][]float64{}
	back := map[string]*acc{}
	var rungs, topCand []float64
	taken := map[string]int{}
	for _, o := range s.search {
		key := fmt.Sprintf("%d/%s", o.class, o.c.spec.problem)
		if o.failed || taken[key] >= replaySample {
			continue
		}
		taken[key]++
		b := locals[o.c]
		opt := engine.Options{}
		if o.c.spec.searchTau > 0 {
			opt.Tau = engine.Tau(float64(o.c.spec.searchTau))
		}
		l := b.recommendedL()
		if o.class == hole {
			l, opt.ChainLength = 1, 1
		}
		eid := s.tr.open(o.trace, o.span, "engine."+classNames[o.class])
		opt.Hooks = s.hooks(o.trace, eid, nil, nil)
		var err error
		switch o.class {
		case ring, hole:
			_, _, err = b.ix.Search(ctx, o.q.eq, opt)
		case topk:
			opt.TopK = topK
			var st engine.Stats
			_, st, err = b.ix.(engine.TopKSearcher).SearchTopK(ctx, o.q.eq, opt)
			rungs = append(rungs, float64(st.Rungs))
			topCand = append(topCand, float64(st.Candidates))
		case batch:
			qs := make([]engine.Query, len(o.items))
			for i, q := range o.items {
				qs[i] = q.eq
			}
			for _, r := range engine.SearchBatch(ctx, b.ix, qs, opt, daemonWorkers) {
				if r.Err != nil {
					err = r.Err
				}
			}
		}
		engineMS[o.class] = append(engineMS[o.class], ms(s.tr.close(eid)))
		if err != nil {
			return fmt.Errorf("replaying %s: %w", o.name(), err)
		}
		if o.class != ring && o.class != hole {
			continue
		}
		name := backendOf[o.c.spec.problem] + "." + classNames[o.class]
		a := back[name]
		if a == nil {
			a = &acc{}
			back[name] = a
		}
		// One untimed call first, so neither timed call pays for
		// bringing the query's postings into cache.
		if _, err := b.backendSearch(o.q, l, false); err != nil {
			return fmt.Errorf("replaying %s in %s: %w", o.name(), backendOf[o.c.spec.problem], err)
		}
		for _, skip := range []bool{true, false} {
			sname := name + ".search"
			if skip {
				sname = name + ".filter"
			}
			id := s.tr.open(o.trace, o.span, sname)
			st, err := b.backendSearch(o.q, l, skip)
			d := ms(s.tr.close(id))
			if err != nil {
				return fmt.Errorf("replaying %s in %s: %w", o.name(), backendOf[o.c.spec.problem], err)
			}
			if skip {
				a.filter = append(a.filter, d)
				continue
			}
			a.full = append(a.full, d)
			a.st.cand += st.cand
			a.st.probes += st.probes
			a.st.boxes += st.boxes
			a.st.results += st.results
			a.n++
		}
	}
	for c := 0; c < nClasses; c++ {
		s.layer["engine."+classNames[c]+".search_ms"] = median(engineMS[c])
	}
	s.layer["engine.topk.rungs"] = mean(rungs)
	s.layer["engine.topk.candidates"] = mean(topCand)
	for name, a := range back {
		n := float64(a.n)
		s.layer[name+".filter_ms"] = mean(a.filter)
		s.layer[name+".verify_ms"] = mean(a.full) - mean(a.filter)
		s.layer[name+".candidates"] = float64(a.st.cand) / n
		s.layer[name+".probes"] = float64(a.st.probes) / n
		s.layer[name+".box_checks"] = float64(a.st.boxes) / n
		if a.st.cand > 0 {
			s.layer[name+".precision"] = float64(a.st.results) / float64(a.st.cand)
		}
	}
	return nil
}

// joinLayers replays one ring and one hole self-join of every corpus
// through the engine, with tile and sort hooks, as children of the
// first HTTP join of the same corpus and chain length.
func (s *runState) joinLayers(ctx context.Context, locals map[*corpus]*local) error {
	var tiles []float64
	var sortMS float64
	roundTiles, roundPairs := 0, 0
	for _, c := range s.corpora {
		for _, l := range []int{0, 1} {
			var parent *op
			for _, o := range s.joins {
				if o.c == c && o.l == l {
					parent = o
					break
				}
			}
			b := locals[c]
			opt := engine.JoinOptions{ChainLength: l}
			var tilesOut *[]float64
			var sortOut *float64
			if l == 0 {
				tilesOut, sortOut = &tiles, &sortMS
			}
			id := s.tr.open(parent.trace, parent.span, "engine.join")
			opt.Hooks = s.hooks(parent.trace, id, tilesOut, sortOut)
			pairs, st, err := b.ix.(engine.Joiner).Join(ctx, opt)
			s.tr.close(id)
			if err != nil {
				return fmt.Errorf("replaying the %s join: %w", c.spec.problem, err)
			}
			m := "ring"
			if l == 1 {
				m = "hole"
			} else {
				roundTiles += st.JoinTiles
				roundPairs += len(pairs)
			}
			name := backendOf[c.spec.problem] + ".join." + m
			s.layer[name+".candidates"] = float64(st.Candidates)
			s.layer[name+".box_checks"] = float64(st.BoxChecks)
		}
	}
	s.layer["engine.join.tiles"] = float64(roundTiles)
	s.layer["engine.join.pairs"] = float64(roundPairs)
	s.layer["engine.join.sort_ms"] = sortMS
	s.layer["engine.join.tile_ms_p50"] = median(tiles)
	s.layer["engine.join.tile_ms_max"] = quantile(tiles, 1)
	return nil
}

// snapshotLayer writes and reopens every index's snapshot in process.
func (s *runState) snapshotLayer(locals map[*corpus]*local) error {
	var open, write, size []float64
	for _, c := range s.corpora {
		trace := fmt.Sprintf("%s-%d-snapshot-%s", s.w.name, s.cfg.seed, c.spec.problem)
		path := filepath.Join(s.dir, c.spec.problem+".local.snap")
		id := s.tr.open(trace, 0, "snapshot.write")
		n, err := engine.WriteSnapshotFile(locals[c].ix, path, s.hooks(trace, id, nil, nil))
		write = append(write, ms(s.tr.close(id)))
		if err != nil {
			return err
		}
		size = append(size, float64(n))
		id = s.tr.open(trace, 0, "snapshot.open")
		_, _, err = engine.OpenSnapshotFile(path, 2, s.hooks(trace, id, nil, nil))
		open = append(open, ms(s.tr.close(id)))
		if err != nil {
			return err
		}
	}
	s.layer["snapshot.open_ms"] = mean(open)
	s.layer["snapshot.write_ms"] = mean(write)
	s.layer["snapshot.bytes"] = mean(size)
	return nil
}

// scrape reads /metrics from the coordinator and every replica.
func (s *runState) scrape(ctx context.Context, c *conn) [][]byte {
	var out [][]byte
	for _, d := range append([]*daemon{s.cl.front}, s.cl.replicas...) {
		b, err := c.get(ctx, d.url+"/metrics")
		if err != nil {
			b = nil
		}
		out = append(out, b)
	}
	return out
}

// clusterCounters are the /metrics counters the cluster layer reads.
var clusterCounters = []string{
	"pigeonring_cluster_tiles_dispatched_total",
	"pigeonring_cluster_tile_retries_total",
	"pigeonring_join_tile_seconds_sum",
}

// addMetricDeltas adds how far each daemon's cluster counters grew
// between two scrapes.
func (s *runState) addMetricDeltas(before, after [][]byte) {
	if s.metricDeltas == nil {
		s.metricDeltas = make([]map[string]float64, len(after))
		for i := range after {
			s.metricDeltas[i] = map[string]float64{}
		}
	}
	for i := range after {
		for _, name := range clusterCounters {
			s.metricDeltas[i][name] += scrapeSum(after[i], name) - scrapeSum(before[i], name)
		}
	}
}

// clusterLayer derives the coordinator's per-round tile counts and the
// replicas' busy time from the /metrics deltas over every join round.
// The coordinator's overhead is measured in joinPhase.
func (s *runState) clusterLayer() {
	if s.metricDeltas == nil {
		return
	}
	rounds := float64(len(s.rounds))
	front := s.metricDeltas[0]
	s.layer["cluster.tiles"] = front["pigeonring_cluster_tiles_dispatched_total"] / rounds
	s.layer["cluster.tile_retries"] = front["pigeonring_cluster_tile_retries_total"] / rounds
	var busy []float64
	for _, d := range s.metricDeltas[1:] {
		busy = append(busy, d["pigeonring_join_tile_seconds_sum"]/rounds)
	}
	s.layer["cluster.replica_busy_s"] = mean(busy)
	if lo := quantile(busy, 0); lo > 0 {
		s.layer["cluster.replica_skew"] = quantile(busy, 1) / lo
	}
}
