package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile estimated from fewer is a guess, not a measurement.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of xs by the
// nearest-rank rule on a sorted copy. ok is false when fewer than
// minBeyond samples lie beyond it, so callers can refuse to report it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], len(s)-1-rank >= minBeyond
}

// noteHitP99 returns the 99th percentile of the hit latencies and notes
// it with its sample count. hit_ms_p99 is printed but not bounded: on a
// shared 2-CPU host it moves by up to 3x between runs of the same code.
func noteHitP99(rep *report, hitMS []float64) float64 {
	p99, ok := percentile(hitMS, 0.99)
	enough := "at least"
	if !ok {
		enough = "fewer than"
	}
	rep.note("hit_ms_p99 %.4g ms over %d hit samples (%s %d beyond)", p99, len(hitMS), enough, minBeyond)
	return p99
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer with no work to divide by,
// such as hops per injection on a run without injections).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tally counts operations attempted and failed. Every failure is
// reported on stderr with its reason, so a non-zero fail_frac always
// comes with a diagnosis.
type tally struct {
	attempted, failed int
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		logf("FAIL %s: %v", what, err)
	}
}

// failFrac is failed over attempted.
func (t tally) failFrac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// usage is a snapshot of the process's host resource counters.
type usage struct {
	cpu     time.Duration // user + system
	alloc   uint64        // MemStats.TotalAlloc
	mallocs uint64
	numGC   uint32
}

func sample() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
	}
}

// delta is the resource use between two snapshots.
type delta struct {
	cpuS, allocMB float64
	mallocs, gcs  float64
}

func (u usage) since(start usage) delta {
	return delta{
		cpuS:    (u.cpu - start.cpu).Seconds(),
		allocMB: float64(u.alloc-start.alloc) / (1 << 20),
		mallocs: float64(u.mallocs - start.mallocs),
		gcs:     float64(u.numGC - start.numGC),
	}
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// splitmix derives the i-th 64-bit seed of a stream from a base seed.
// Equal (base, i) pairs give equal seeds; neighbouring i are unrelated.
func splitmix(base, i uint64) uint64 {
	z := base + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
