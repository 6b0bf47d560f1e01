package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

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

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// refLoopSink keeps the reference loop's result live.
var refLoopSink float64

// refData is the reference loop's working set: 2 MiB, the size of the
// dense K512 coupling matrix, so the loop feels the same cache and
// memory-bandwidth contention the workloads do. Built on first use.
var refData = sync.OnceValue(func() []float64 {
	d := make([]float64, 1<<18)
	for i := range d {
		d[i] = float64(i%7) - 3
	}
	return d
})

// refLoop times a fixed pure-Go pass: 32 streaming dot products over
// refData. It runs no repository code, so a change in its time between
// two runs is the host's doing, never the program's.
func refLoop() (time.Duration, float64) {
	data := refData()
	start := time.Now()
	acc := 0.0
	for pass := 0; pass < 32; pass++ {
		for i, v := range data {
			acc += v * data[len(data)-1-i]
		}
	}
	return time.Since(start), acc
}

// stealTicks reads the cumulative steal time of all CPUs from
// /proc/stat, in clock ticks; -1 where the file is unreadable.
func stealTicks() int64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, err := strconv.ParseInt(fields[8], 10, 64)
			if err != nil {
				return -1
			}
			return v
		}
	}
	return -1
}

// refLoopReps is how many reference rounds refLoopMS takes the median
// of, so one sample does not hang on a single scheduling slice.
const refLoopReps = 3

// refLoopMS runs the reference pass on every CPU at once and returns
// the slowest pass's time, the median of refLoopReps rounds, in ms. The
// slowest CPU gates a solve split across both cores, and a
// single-threaded pass, scheduled on the faster CPU, misses it.
func refLoopMS() float64 {
	xs := make([]float64, refLoopReps)
	times := make([]time.Duration, runtime.NumCPU())
	accs := make([]float64, len(times))
	for i := range xs {
		var wg sync.WaitGroup
		for c := range times {
			wg.Add(1)
			go func() {
				defer wg.Done()
				times[c], accs[c] = refLoop()
			}()
		}
		wg.Wait()
		for _, a := range accs {
			refLoopSink += a
		}
		xs[i] = ms(slices.Max(times))
	}
	return median(xs)
}

// hostDrift brackets a run with the reference loop and the steal
// counter; it is reported beside the metrics and never gated.
type hostDrift struct {
	refStart, refEnd float64
	steal0, steal1   int64
}

func startDrift() *hostDrift {
	return &hostDrift{refStart: refLoopMS(), steal0: stealTicks()}
}

func (h *hostDrift) finish() {
	h.refEnd = refLoopMS()
	h.steal1 = stealTicks()
}

func (h *hostDrift) refMS() float64 { return (h.refStart + h.refEnd) / 2 }

func (h *hostDrift) steal() int64 {
	if h.steal0 < 0 || h.steal1 < 0 {
		return -1
	}
	return h.steal1 - h.steal0
}

func (h *hostDrift) String() string {
	return fmt.Sprintf("host.ref_loop_ms start=%.3f end=%.3f host.steal_ticks=%d",
		h.refStart, h.refEnd, h.steal())
}

// selfCPU is the user plus system CPU this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// CPU times on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU is the user plus system CPU of process pid, from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is the state (stat field 3); utime and stime are stat
	// fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMiB reads VmHWM (peak resident set) of process pid, or of
// this process for pid 0, in MiB.
func peakRSSMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
