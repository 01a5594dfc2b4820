package main

import (
	"fmt"
	"slices"
	"time"
)

// quantile returns the p-quantile of xs by linear interpolation
// between order statistics; 0 for no values.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// classOps returns the search ops of one class.
func (s *runState) classOps(class int) []*op {
	var out []*op
	for _, o := range s.search {
		if o.class == class {
			out = append(out, o)
		}
	}
	return out
}

// latenciesMS are the ops' latencies from when each was due.
func latenciesMS(ops []*op) []float64 {
	return latencies(ops, (*op).latency)
}

// latenciesMS are the latencies of the segment's searches of one
// class, from when each was due.
func (seg *segment) latenciesMS(class int) []float64 {
	var out []float64
	for _, o := range seg.search {
		if o.class == class {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

// cpuMS are the CPU times of the ops that have one of their own:
// searches and joins, less searches that shared the daemons with a
// reload.
func cpuMS(ops []*op) []float64 {
	var out []float64
	for _, o := range ops {
		if o.cpu > 0 && !o.shared {
			out = append(out, ms(o.cpu))
		}
	}
	return out
}

// cpuMS are the CPU times of the segment's searches of one class.
func (seg *segment) cpuMS(class int) []float64 {
	var ops []*op
	for _, o := range seg.search {
		if o.class == class {
			ops = append(ops, o)
		}
	}
	return cpuMS(ops)
}

// latencies returns f of every op, in milliseconds.
func latencies(ops []*op, f func(*op) time.Duration) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = ms(f(o))
	}
	return out
}

// report prints, per operation class, what was attempted and failed,
// how the latencies fell and the median CPU time, then the send lag:
// how long searches waited past their due time, queued behind the
// answer before them.
func (s *runState) report() {
	line := func(name string, ops []*op, lat []float64) {
		failed := 0
		for _, o := range ops {
			if o.failed {
				failed++
			}
		}
		fmt.Printf("%-7s attempted %5d  failed %d  p50 %8.3f ms  p90 %8.3f ms  max %8.3f ms",
			name, len(ops), failed, median(lat), quantile(lat, 0.9), quantile(lat, 1))
		if cpu := cpuMS(ops); len(cpu) > 0 {
			fmt.Printf("  cpu p50 %7.3f ms", median(cpu))
		}
		fmt.Println()
	}
	fmt.Printf("workload %s  seed %d  %d s\n", s.w.name, s.cfg.seed, s.cfg.seconds)
	for c := 0; c < nClasses; c++ {
		ops := s.classOps(c)
		line(classNames[c], ops, latenciesMS(ops))
		fmt.Printf("  p50 per segment (ms):")
		for i := range s.segs {
			fmt.Printf(" %.3f", median(s.segs[i].latenciesMS(c)))
		}
		fmt.Printf("\n  cpu p50 per segment (ms):")
		for i := range s.segs {
			fmt.Printf(" %.3f", median(s.segs[i].cpuMS(c)))
		}
		fmt.Println()
		if len(s.w.searches) == 1 {
			continue
		}
		for _, m := range s.w.searches {
			var sub []*op
			for _, o := range ops {
				if o.c.spec.problem == m.problem {
					sub = append(sub, o)
				}
			}
			if len(sub) > 0 {
				line("  "+m.problem, sub, latenciesMS(sub))
			}
		}
	}
	var beside, solo []*op
	for _, seg := range s.segs {
		beside = append(beside, seg.reloads...)
		solo = append(solo, seg.solo...)
	}
	line("reload", beside, latencies(beside, (*op).wall))
	line("  solo", solo, latencies(solo, (*op).wall))
	fmt.Printf("  solo  cpu %.3f ms per reload\n", s.reloadCPUMS())
	line("join", slices.Concat(s.joins, s.refs), latencies(s.joins, (*op).wall))
	for _, c := range s.corpora {
		for _, l := range []int{0, 1} {
			var sub []*op
			for _, o := range s.joins {
				if o.c == c && o.l == l {
					sub = append(sub, o)
				}
			}
			line(fmt.Sprintf("  %s l=%d", c.spec.problem, l), sub, latencies(sub, (*op).wall))
		}
	}
	for _, l := range []int{0, 1} {
		fmt.Printf("rounds  l=%d  median wall %.3f s  cpu %.3f s\n", l, median(s.roundSeconds(l)), median(s.roundCPUSeconds(l)))
	}
	fmt.Printf("setup   boots %d  median %.3f s  min %.3f s  max %.3f s\n",
		len(s.setupS), median(s.setupS), quantile(s.setupS, 0), quantile(s.setupS, 1))
	var lag []float64
	for _, o := range s.search {
		lag = append(lag, ms(o.sent-o.due))
	}
	var length time.Duration
	for _, seg := range s.segs {
		length += seg.length
	}
	fmt.Printf("send lag p90 %.3f ms  max %.3f ms over %d searches offered at %.0f/s in %d segments\n",
		quantile(lag, 0.9), quantile(lag, 1), len(lag), float64(len(lag))/length.Seconds(), len(s.segs))
}

// endToEnd fills in the metrics a user of the daemon sees, for a
// regression gate. Search, reload and join costs are the daemons' CPU
// time per request or round, not the latencies and round times report
// prints: on a shared host a neighbour's load moves wall times by more
// than any bound a gate can use, latencies up to threefold within
// minutes, and CPU time by far less (README, run-to-run drift). For a
// search, which runs on one thread, the CPU time is the wall time it
// needs when nothing else competes for the CPU.
//
// A search metric is the median over the segments of each segment's
// median: a burst of load that slows a few segments moves it less than
// it moves the median of every operation pooled. Some reloads set off
// a garbage collection of the daemons' heaps, which may outlast the
// reload's answer, and others do not, so reload_cpu_ms is the CPU time
// of every block of solo reloads, each until its collections are done,
// over the number of reloads: it counts the collections at the rate
// they happen, where a median would flip between the two kinds.
func (s *runState) endToEnd(m map[string]metric) {
	for c := 0; c < nClasses; c++ {
		m[classNames[c]+"_cpu_ms"] = metric{s.segmentMedian(func(seg *segment) []float64 { return seg.cpuMS(c) }), "ms"}
	}
	m["reload_cpu_ms"] = metric{s.reloadCPUMS(), "ms"}
	m["join_cpu_s"] = metric{median(s.roundCPUSeconds(0)), "s"}
	m["hole_join_cpu_s"] = metric{median(s.roundCPUSeconds(1)), "s"}
	m["setup_s"] = metric{median(s.setupS), "s"}
	m["index_mb"] = metric{s.indexMB, "MB"}
	m["peak_rss_mb"] = metric{median(s.rssMB), "MB"}
}

// reloadCPUMS is the daemons' CPU time per solo reload.
func (s *runState) reloadCPUMS() float64 {
	var cpu time.Duration
	solo := 0
	for _, seg := range s.segs {
		cpu += seg.soloCPU
		solo += len(seg.solo)
	}
	return ms(cpu) / float64(solo)
}

// segmentMedian is the median over the segments of the median of what
// f returns for each; segments that return nothing are left out.
func (s *runState) segmentMedian(f func(*segment) []float64) float64 {
	var meds []float64
	for i := range s.segs {
		if xs := f(&s.segs[i]); len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return median(meds)
}
