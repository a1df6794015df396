package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of v by linear interpolation between order
// statistics (the definition Python's statistics.quantiles uses with
// method="inclusive"); it is used for latencies inside one run.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles returns the first quartile, median and third quartile of v as
// Python's statistics.quantiles(v, n=4) does (the default, exclusive method),
// so -compare computes the same spread the acceptance procedure does.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// openFDs counts the process's open file descriptors (0 where /proc is absent).
func openFDs() int {
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(entries)
}

// loadAverage1 is the 1-minute load average (0 where /proc is absent).
func loadAverage1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return 0
	}
	return v
}

// machineCPUSeconds reads the machine-wide counters of /proc/stat: CPU time
// spent running anything (user, nice, system, irq, softirq) and time stolen by
// the hypervisor, in seconds. ok is false where /proc/stat is absent.
func machineCPUSeconds() (busy, stolen float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	const userHZ = 100 // the kernel reports these counters in 1/100 s on Linux
	var ticks [8]float64
	for i := range ticks {
		if ticks[i], err = strconv.ParseFloat(fields[i+1], 64); err != nil {
			return 0, 0, false
		}
	}
	return (ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6]) / userHZ, ticks[7] / userHZ, true
}

// rssPeakBytes is the process's resident-set high-water mark (VmHWM).
func rssPeakBytes() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb * 1024
				}
			}
		}
	}
	return 0
}

// settle waits for the goroutine and descriptor counts to come back to at
// most the given values: connection teardown finishes a moment after Close
// returns. It reports the counts it last saw.
func settle(goroutines, fds int) (int, int) {
	deadline := time.Now().Add(3 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs()
		if (g <= goroutines && f <= fds) || time.Now().After(deadline) {
			return g, f
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// timeCalls measures fn by repeating it in batches until budget is spent and
// returns the median time of one call in seconds. Probes use it: one
// goroutine, nothing else running.
func timeCalls(budget time.Duration, fn func()) float64 {
	fn() // warm caches and lazy initialisation
	var per []float64
	batch := 1
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		d := time.Since(start)
		per = append(per, d.Seconds()/float64(batch))
		if d < 200*time.Microsecond && batch < 1<<20 {
			batch *= 4 // keep each sample well above timer resolution
			per = per[:0]
		}
		if len(per) >= 2000 {
			break
		}
	}
	return median(per)
}
