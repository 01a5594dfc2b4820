// Package oracle computes the answers the end-to-end benchmark checks
// pigeonringd against, by brute force and without calling any search
// backend of the repository: Hamming distance by popcount, Jaccard
// similarity over sorted token ids in exact integer arithmetic, banded
// edit distance, the k nearest objects with ties broken by id, and
// all-pairs self-joins. Graph edit distance has no brute-force oracle
// here (exact GED is exponential); graphs are checked by properties,
// for which the package supplies an admissible lower bound and an
// exact-equality test.
package oracle

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
)

// Result is one top-k answer: an object id and its distance.
type Result struct {
	ID       int64
	Distance float64
}

// Hamming returns the number of differing bits of two equally long
// packed bit vectors.
func Hamming(a, b []uint64) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// Overlap returns |x ∩ y| for two sorted sets of distinct token ids.
func Overlap(x, y []int32) int {
	o, i, j := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] == y[j]:
			o++
			i++
			j++
		case x[i] < y[j]:
			i++
		default:
			j++
		}
	}
	return o
}

// JaccardAtLeast reports whether J(x, y) = |x∩y| / |x∪y| is at least
// num/den, compared exactly in integers.
func JaccardAtLeast(x, y []int32, num, den int) bool {
	o := Overlap(x, y)
	return den*o >= num*(len(x)+len(y)-o)
}

// JaccardDistance returns 1 − J(x, y), the distance a top-k set search
// ranks by.
func JaccardDistance(x, y []int32) float64 {
	o := Overlap(x, y)
	return 1 - float64(o)/float64(len(x)+len(y)-o)
}

// EditDistanceWithin returns the Levenshtein distance of a and b over
// bytes if it is at most tau, and −1 otherwise. Only the diagonal band
// of width 2·tau+1 is filled: a path leaving it already costs more
// than tau.
func EditDistanceWithin(a, b string, tau int) int {
	if d := len(a) - len(b); d > tau || -d > tau {
		return -1
	}
	inf := tau + 1
	var buf [2][64]int
	prev, cur := buf[0][:], buf[1][:]
	if len(b) >= len(buf[0]) {
		prev, cur = make([]int, len(b)+1), make([]int, len(b)+1)
	}
	for j := range prev {
		prev[j] = min(j, inf)
	}
	for i := 1; i <= len(a); i++ {
		lo, hi := max(1, i-tau), min(len(b), i+tau)
		rowMin := inf
		if i <= tau {
			cur[0] = i
			rowMin = i
		} else {
			cur[0] = inf
		}
		if lo > 1 {
			cur[lo-1] = inf
		}
		for j := lo; j <= hi; j++ {
			v := prev[j-1]
			if a[i-1] != b[j-1] {
				v++
			}
			if j < i+tau && prev[j]+1 < v {
				v = prev[j] + 1
			}
			if cur[j-1]+1 < v {
				v = cur[j-1] + 1
			}
			v = min(v, inf)
			cur[j] = v
			rowMin = min(rowMin, v)
		}
		if hi < len(b) {
			cur[hi+1] = inf
		}
		if rowMin > tau {
			return -1
		}
		prev, cur = cur, prev
	}
	if d := prev[len(b)]; d <= tau {
		return d
	}
	return -1
}

// Nearest returns the k results of within with the smallest distance,
// ordered by (distance, id) ascending, given every object inside the
// search ceiling with its distance. It sorts within in place.
func Nearest(within []Result, k int) []Result {
	slices.SortFunc(within, compareResult)
	return within[:min(k, len(within))]
}

func compareResult(a, b Result) int {
	if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// SelfJoin returns every pair (i, j), i < j, of objects in [0, n) for
// which within(i, j) holds, ascending by (i, j). Objects are visited
// in ascending order of size[i]; for each object only partners whose
// size is at most reach(size[i]) are tested, so reach must be a bound
// no matching partner of equal or larger size can exceed (the length
// difference bound of edit distance, the size ratio bound of Jaccard
// similarity). A nil size tests every pair. The pair space is split
// over workers goroutines.
func SelfJoin(n, workers int, size []int, reach func(int) int, within func(i, j int) bool) [][2]int64 {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if size != nil {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(size[a], size[b]) })
	}
	parts := make([][][2]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for a := w; a < n; a += workers {
				i := order[a]
				for b := a + 1; b < n; b++ {
					j := order[b]
					if size != nil && size[j] > reach(size[i]) {
						break
					}
					if within(i, j) {
						parts[w] = append(parts[w], [2]int64{int64(min(i, j)), int64(max(i, j))})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	return sortPairs(slices.Concat(parts...))
}

// JaccardJoin returns every pair (i, j), i < j, of sets with
// J ≥ num/den, ascending. Overlaps are counted exactly through token
// postings, so pairs sharing no token, at J = 0, are never visited.
func JaccardJoin(sets [][]int32, num, den, workers int) [][2]int64 {
	postings := map[int32][]int32{}
	for i, s := range sets {
		for _, t := range s {
			postings[t] = append(postings[t], int32(i))
		}
	}
	parts := make([][][2]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			count := make([]int32, len(sets))
			var touched []int32
			for i := w; i < len(sets); i += workers {
				for _, t := range sets[i] {
					for _, j := range postings[t] {
						if int(j) > i {
							if count[j] == 0 {
								touched = append(touched, j)
							}
							count[j]++
						}
					}
				}
				for _, j := range touched {
					o := int(count[j])
					if den*o >= num*(len(sets[i])+len(sets[j])-o) {
						parts[w] = append(parts[w], [2]int64{int64(i), int64(j)})
					}
					count[j] = 0
				}
				touched = touched[:0]
			}
		}(w)
	}
	wg.Wait()
	return sortPairs(slices.Concat(parts...))
}

func sortPairs(ps [][2]int64) [][2]int64 {
	slices.SortFunc(ps, func(x, y [2]int64) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
	return ps
}

// Graph is a labeled undirected graph in the benchmark's own form:
// vertex labels by vertex, and edges [u, v, label] with u < v.
type Graph struct {
	Labels []int32
	Edges  [][3]int
}

// LabelLowerBound returns the label-multiset lower bound on the graph
// edit distance of a and b under unit costs (vertex and edge insertion,
// deletion and relabeling): max(|Va|, |Vb|) − |L(Va) ∩ L(Vb)| plus the
// same on edges. Each edit operation removes at most one unit of one
// of the two differences.
func LabelLowerBound(a, b Graph) int {
	vl := func(g Graph) map[int]int {
		m := map[int]int{}
		for _, l := range g.Labels {
			m[int(l)]++
		}
		return m
	}
	el := func(g Graph) map[int]int {
		m := map[int]int{}
		for _, e := range g.Edges {
			m[e[2]]++
		}
		return m
	}
	inter := func(x, y map[int]int) int {
		s := 0
		for k, c := range x {
			s += min(c, y[k])
		}
		return s
	}
	return max(len(a.Labels), len(b.Labels)) - inter(vl(a), vl(b)) +
		max(len(a.Edges), len(b.Edges)) - inter(el(a), el(b))
}

// Equal reports whether a and b are the same graph under the identity
// vertex mapping, which puts them at graph edit distance 0.
func Equal(a, b Graph) bool {
	if !slices.Equal(a.Labels, b.Labels) || len(a.Edges) != len(b.Edges) {
		return false
	}
	key := func(g Graph) [][3]int {
		es := slices.Clone(g.Edges)
		slices.SortFunc(es, func(x, y [3]int) int {
			for k := range x {
				if c := cmp.Compare(x[k], y[k]); c != 0 {
					return c
				}
			}
			return 0
		})
		return es
	}
	return slices.Equal(key(a), key(b))
}
