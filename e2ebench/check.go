package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"repro/e2ebench/oracle"
	"repro/internal/server"
)

// check compares every answer with the oracle (hamming, set, string)
// or with graph properties, marks failed operations and returns how
// many answered wrongly, as opposed to not answering at all. A probe's
// wrong answer is the known fault it exists to show, so it counts as
// failed but not as wrong.
func (s *runState) check() int {
	wrong, logged, loggedKnown := 0, 0, false
	graphRef := map[*corpus][][2]int64{}
	for _, o := range slices.Concat(s.joins, s.refs) {
		if o.err == nil && o.c.spec.problem == "graph" && graphRef[o.c] == nil {
			var jr server.JoinResponse
			if json.Unmarshal(o.resp, &jr) == nil {
				graphRef[o.c] = jr.Pairs
			}
		}
	}
	for _, o := range s.allOps() {
		err := o.err
		if err == nil {
			switch o.kind {
			case "search":
				err = s.checkSearch(o)
			case "reload":
				err = checkReload(o)
			case "join":
				err = checkJoin(o, graphRef[o.c])
			}
			if err != nil && !o.known {
				wrong++
			}
		}
		if err != nil {
			o.failed = true
			switch {
			case o.known && !loggedKnown:
				loggedKnown = true
				fmt.Fprintf(os.Stderr, "e2ebench: %s of probe object %d failed, as known: %v\n", o.name(), o.q.source, err)
			case !o.known && logged < 5:
				logged++
				fmt.Fprintf(os.Stderr, "e2ebench: %s failed: %v\n", o.name(), err)
			}
		}
	}
	return wrong
}

func (s *runState) checkSearch(o *op) error {
	switch o.class {
	case ring, hole:
		var sr server.SearchResponse
		if err := json.Unmarshal(o.resp, &sr); err != nil {
			return err
		}
		if o.c.spec.problem != "graph" {
			return sameIDs(sr.IDs, o.q.exp)
		}
		if err := graphIDs(o.q, sr.IDs); err != nil {
			return err
		}
		// The same query at the other chain length must agree.
		if p := o.partner; p.err == nil {
			var pr server.SearchResponse
			if err := json.Unmarshal(p.resp, &pr); err != nil {
				return err
			}
			return sameIDs(sr.IDs, pr.IDs)
		}
		return nil
	case topk:
		var tr server.TopKResponse
		if err := json.Unmarshal(o.resp, &tr); err != nil {
			return err
		}
		got := make([]oracle.Result, len(tr.Results))
		for i, r := range tr.Results {
			got[i] = oracle.Result{ID: r.ID, Distance: r.Distance}
		}
		return sameResults(got, o.q.expTop)
	default:
		var br server.BatchResponse
		if err := json.Unmarshal(o.resp, &br); err != nil {
			return err
		}
		if len(br.Results) != len(o.items) {
			return fmt.Errorf("%d batch results for %d queries", len(br.Results), len(o.items))
		}
		for i, it := range br.Results {
			q := o.items[i]
			if it.Error != "" {
				return fmt.Errorf("batch item %d: %s", i, it.Error)
			}
			if err := sameIDs(it.IDs, q.exp); err != nil {
				return fmt.Errorf("batch item %d (object %d): %w", i, q.source, err)
			}
		}
		return nil
	}
}

func checkReload(o *op) error {
	var lr server.LoadResponse
	if err := json.Unmarshal(o.resp, &lr); err != nil {
		return err
	}
	if lr.N != o.c.spec.n || lr.Problem != o.c.spec.problem {
		return fmt.Errorf("reload answered %s n=%d, want %s n=%d", lr.Problem, lr.N, o.c.spec.problem, o.c.spec.n)
	}
	return nil
}

// checkJoin compares a join with the oracle's pairs; a graph join must
// equal every other graph join of the run (ring, hole, coordinator and
// straight to a replica), keep every pair of identical graphs, and
// pass the label lower bound on every pair.
func checkJoin(o *op, ref [][2]int64) error {
	var jr server.JoinResponse
	if err := json.Unmarshal(o.resp, &jr); err != nil {
		return err
	}
	c := o.c
	if c.spec.problem != "graph" {
		return samePairs(jr.Pairs, c.pairs)
	}
	if err := samePairs(jr.Pairs, ref); err != nil {
		return fmt.Errorf("graph joins disagree: %w", err)
	}
	tau := int(c.spec.tau)
	for _, p := range jr.Pairs {
		if lb := oracle.LabelLowerBound(c.og[p[0]], c.og[p[1]]); lb > tau {
			return fmt.Errorf("pair %v has label lower bound %d > τ=%d", p, lb, tau)
		}
	}
	for _, p := range c.identical() {
		if _, ok := slices.BinarySearchFunc(jr.Pairs, p, comparePair); !ok {
			return fmt.Errorf("identical graphs %v missing from the join", p)
		}
	}
	return nil
}

// identical lists the pairs of equal corpus graphs, which every graph
// join must report.
func (c *corpus) identical() [][2]int64 {
	if c.same == nil {
		c.same = [][2]int64{}
		for i := range c.og {
			for j := i + 1; j < len(c.og); j++ {
				if oracle.Equal(c.og[i], c.og[j]) {
					c.same = append(c.same, [2]int64{int64(i), int64(j)})
				}
			}
		}
	}
	return c.same
}

func comparePair(a, b [2]int64) int {
	if a[0] != b[0] {
		return int(a[0] - b[0])
	}
	return int(a[1] - b[1])
}

// graphIDs checks a graph threshold answer by properties: it holds the
// corpus graph the query was made from (at most τ edits away), and
// every id passes the label lower bound.
func graphIDs(q *query, ids []int64) error {
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		return fmt.Errorf("ids not ascending")
	}
	if _, ok := slices.BinarySearch(ids, int64(q.source)); !ok {
		return fmt.Errorf("graph %d, %d edits from the query, missing", q.source, q.edits)
	}
	tau := int(q.c.spec.tau)
	for _, id := range ids {
		if lb := oracle.LabelLowerBound(q.c.og[id], q.og); lb > tau {
			return fmt.Errorf("graph %d has label lower bound %d > τ=%d", id, lb, tau)
		}
	}
	return nil
}

func sameIDs(got, want []int64) error {
	if len(got) == 0 && len(want) == 0 {
		return nil
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("got %d ids, want %d (first difference %s)", len(got), len(want), firstDiff(len(got), len(want), func(i int) bool { return got[i] == want[i] }))
	}
	return nil
}

func samePairs(got, want [][2]int64) error {
	if len(got) == 0 && len(want) == 0 {
		return nil
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("got %d pairs, want %d (first difference %s)", len(got), len(want), firstDiff(len(got), len(want), func(i int) bool { return got[i] == want[i] }))
	}
	return nil
}

func sameResults(got, want []oracle.Result) error {
	eq := func(i int) bool {
		return got[i].ID == want[i].ID && math.Abs(got[i].Distance-want[i].Distance) <= 1e-12
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !eq(i) {
			return fmt.Errorf("result %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func firstDiff(a, b int, eq func(i int) bool) string {
	for i := 0; i < min(a, b); i++ {
		if !eq(i) {
			return fmt.Sprintf("at %d", i)
		}
	}
	return fmt.Sprintf("at %d", min(a, b))
}
