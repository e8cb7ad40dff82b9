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

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the CPU time the process has used, user and system. A guest
// kernel with paravirtual steal accounting (CONFIG_PARAVIRT_TIME_ACCOUNTING)
// does not charge the process for time the hypervisor stole, so on such a
// box this, unlike wall time, does not move with CPU steal.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTimes reads the aggregate cpu line of /proc/stat: total and steal
// jiffies. ok is false where /proc/stat is unavailable.
func cpuTimes() (total, steal int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the share of CPU time the hypervisor stole over a run.
type stealMeter struct {
	total, steal int64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTimes()
	return stealMeter{t, s, ok}
}

func (m stealMeter) share() float64 {
	t, s, ok := cpuTimes()
	if !m.ok || !ok {
		return -1
	}
	return ratio(float64(s-m.steal), float64(t-m.total))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runRecord describes the box and the workload's configuration, so runs on
// different boxes or under CPU steal can be told apart.
func runRecord(w *workloadResult, stealShare float64) map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu":         cpuModel(),
		"go":          runtime.Version(),
		"steal_share": stealShare,
		"sync_policy": "none",
		"config":      w.config,
	}
}
