package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of v by linear interpolation
// between order statistics; v need not be sorted and is not modified.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// usage is a process-wide resource reading; deltas of two readings divide by
// the work done between them to give the per-packet and per-chunk rows.
type usage struct {
	mallocs, bytes uint64
	cpu            time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu: cpu}
}

func (a usage) since(b usage) usage {
	return usage{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, cpu: a.cpu - b.cpu}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo, for meta.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}
