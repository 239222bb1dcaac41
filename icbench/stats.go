package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over 300 samples rests on three values and
// is noise, not a tail.
const minBeyond = 10

// failedMs is how a failed or refused operation is recorded in a latency
// sample: it sorts above every real latency, so it misses any limit.
var failedMs = math.Inf(1)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and
// whether at least minBeyond samples lie beyond it. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx], len(s)-1-idx >= minBeyond
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// clockTicks is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPUSeconds returns the user plus system CPU time a process has used.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name sits in parentheses and may hold spaces; fields
	// are counted from the closing parenthesis (state is field 3, utime
	// field 14, stime field 15).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, os.ErrInvalid
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// stealTicks returns the machine-wide steal time and total CPU time, in
// clock ticks, from the first line of /proc/stat (0, 0 if unreadable).
func stealTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0
		}
		if i == 7 {
			steal = v
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
	}
	return steal, total
}

// A stolen window is a stealWindow in which the hypervisor ran other
// guests for more than stealLimit of the machine's CPU time. The report
// counts the arrivals near one so that a run that met a noisy neighbour
// can be spotted and re-run; the latency metrics still count every
// arrival, because the kernel counts steal only while a vCPU is runnable,
// so a program that needs more CPU also sees more steal.
const (
	stealWindow = 250 * time.Millisecond
	stealLimit  = 0.05
)

// sampler records, every stealWindow while a phase runs, whether the
// window was stolen and the serving processes' resident memory.
type sampler struct {
	start  time.Time
	pids   []int
	stop   chan struct{}
	done   chan struct{}
	stolen []bool    // written by the sampling goroutine until done closes
	rssMB  []float64 // likewise
}

func startSampler(pids []int) *sampler {
	s := &sampler{start: time.Now(), pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(stealWindow)
		defer t.Stop()
		st0, n0 := stealTicks()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				st1, n1 := stealTicks()
				s.stolen = append(s.stolen, n1 > n0 && (st1-st0)/(n1-n0) > stealLimit)
				st0, n0 = st1, n1
				rss := 0.0
				for _, pid := range s.pids {
					v, _ := procStatusMB(pid, "VmRSS") // a process that is gone has no memory
					rss += v
				}
				s.rssMB = append(s.rssMB, rss)
			}
		}
	}()
	return s
}

// finish stops the sampler. It returns the median resident memory and a
// test for whether a moment lies in a stolen window or in a window next to
// one (a request due just after a stolen window still meets the backlog it
// left).
func (s *sampler) finish() (rssMB float64, nearSteal func(time.Time) bool) {
	close(s.stop)
	<-s.done
	return median(s.rssMB), func(t time.Time) bool {
		k := int(t.Sub(s.start) / stealWindow)
		for j := k - 1; j <= k+1; j++ {
			if j >= 0 && j < len(s.stolen) && s.stolen[j] {
				return true
			}
		}
		return false
	}
}

// procStatusMB returns a memory field of /proc/<pid>/status (VmRSS, or
// VmHWM for the peak resident set) in MiB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
