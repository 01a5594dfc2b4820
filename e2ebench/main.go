// Command e2ebench is the end-to-end benchmark of pigeonringd. It boots
// real daemons on loopback ports, drives them over HTTP from this one
// process (at most two connections), checks every answer against a
// brute-force oracle or, for graphs, against properties, and prints
// the end-to-end metrics of one workload as the last line of its
// output. With -trace 1 it runs the same traffic and additionally
// replays it in process, timing the calls into each module's public
// functions, and prints the per-layer metrics instead; its spans are
// written as JSON lines.
//
// Run it through run.sh from the repository root, which builds the
// daemon and this command first:
//
//	bash e2ebench/run.sh --workload search-hamming --seed 1 --seconds 40 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	name := flag.String("workload", "", "workload: search-hamming or join-cluster")
	seed := flag.Int64("seed", 1, "workload seed: corpora, queries and shares derive from it")
	seconds := flag.Int("seconds", 40, "run length in seconds; sets how many operations a run attempts")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	bin := flag.String("bin", "", "pigeonringd binary")
	dir := flag.String("dir", "", "directory for daemon logs, snapshots and traces")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *bin == "" || *dir == "" || *seconds < 1 || *seed < 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: need a known -workload, -seed ≥ 1, -seconds ≥ 1, -bin and -dir\n")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, w, config{seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, dir: *dir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type config struct {
	seed    int64
	seconds int
	trace   bool
	bin     string
	dir     string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
