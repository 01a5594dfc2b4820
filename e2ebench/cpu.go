package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"
)

// cpuClock reads how long the threads of a set of daemons have run on
// a CPU, from /proc/<pid>/task/<tid>/schedstat. The kernel counts that
// time in nanoseconds and leaves out time spent waiting to run and,
// on a virtual machine that reports it, time stolen by the
// hypervisor. A request's CPU time therefore stays put when other
// load on the host slows its wall time down, which makes it the
// benchmark's gated measure of what a request costs the daemons.
//
// A clock is used from one goroutine at a time.
type cpuClock struct {
	pids   []int
	files  map[string]*os.File // schedstat of each thread seen, by path
	buf    []byte
	before map[string]int64
	after  map[string]int64
}

func newCPUClock(c *cluster) *cpuClock {
	k := &cpuClock{files: map[string]*os.File{}, buf: make([]byte, 128),
		before: map[string]int64{}, after: map[string]int64{}}
	for _, d := range c.all {
		k.pids = append(k.pids, d.cmd.Process.Pid)
	}
	return k
}

// start reads every thread's run time before an operation.
func (k *cpuClock) start() error { return k.read(k.before) }

// stop returns the run time the daemons' threads gained since start.
// A thread born in between counts from zero; the run time of one that
// ended in between is lost, which Go programs rarely do.
func (k *cpuClock) stop() (time.Duration, error) {
	if err := k.read(k.after); err != nil {
		return 0, err
	}
	var d int64
	for p, v := range k.after {
		d += v - k.before[p]
	}
	return time.Duration(d), nil
}

func (k *cpuClock) read(into map[string]int64) error {
	clear(into)
	for _, pid := range k.pids {
		dir := fmt.Sprintf("/proc/%d/task/", pid)
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			p := dir + e.Name()
			f := k.files[p]
			if f == nil {
				if f, err = os.Open(p + "/schedstat"); err != nil {
					continue // the thread has just ended
				}
				k.files[p] = f
			}
			n, _ := f.ReadAt(k.buf, 0)
			end := bytes.IndexByte(k.buf[:n], ' ')
			if end < 0 {
				continue
			}
			v, err := strconv.ParseInt(string(k.buf[:end]), 10, 64)
			if err != nil {
				return fmt.Errorf("%s/schedstat: %w", p, err)
			}
			into[p] = v
		}
	}
	return nil
}

func (k *cpuClock) close() {
	for _, f := range k.files {
		f.Close()
	}
}
