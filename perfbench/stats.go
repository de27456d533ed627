package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func p90(xs []float64) float64 { return quantile(xs, 0.9) }

// A measured phase is split into stealWindows consecutive windows of
// equal length, and the VM's CPU steal (see cpuTicks) is sampled at
// each boundary. A window in which more than quietSteal of the CPU
// time the VM asked for went to other guests measured the neighbours
// as much as the program: such windows are dropped, but the quietest
// minKept windows are always kept, so a run always reports on at least
// 30% of its operations. Steal comes in bursts of a few seconds here,
// so the windows are short enough to cut a burst out of a run.
const (
	stealWindows = 20
	minKept      = 6
	quietSteal   = 0.05
)

// stealWatch samples /proc/stat at the window boundaries of one phase.
// A nil *stealWatch keeps every window.
type stealWatch struct {
	start  time.Time
	width  time.Duration
	demand []float64 // cumulative ticks at each boundary
	steal  []float64
	done   chan struct{}
	keep   []bool
}

// watchSteal starts sampling the windows of a phase that starts at
// start and lasts dur. finish waits for the last boundary.
func watchSteal(start time.Time, dur time.Duration) *stealWatch {
	w := &stealWatch{start: start, width: dur / stealWindows,
		demand: make([]float64, stealWindows+1), steal: make([]float64, stealWindows+1), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		for i := 0; i <= stealWindows; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * w.width)))
			w.demand[i], w.steal[i] = cpuTicks()
		}
	}()
	return w
}

// finish waits for the last sample, decides which windows are kept
// and reports them on standard error.
func (w *stealWatch) finish(phase string) {
	if w == nil {
		return
	}
	<-w.done
	share := make([]float64, stealWindows)
	order := make([]int, stealWindows)
	for i := range share {
		if dt := w.demand[i+1] - w.demand[i]; dt > 0 {
			share[i] = (w.steal[i+1] - w.steal[i]) / dt
		}
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return share[order[a]] < share[order[b]] })
	w.keep = make([]bool, stealWindows)
	kept := 0
	for rank, i := range order {
		if rank < minKept || share[i] <= quietSteal {
			w.keep[i] = true
			kept++
		}
	}
	var b strings.Builder
	for i, s := range share {
		mark := ""
		if !w.keep[i] {
			mark = "x"
		}
		fmt.Fprintf(&b, " %.1f%s", 100*s, mark)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: kept %d of %d windows; steal %% per window:%s\n", phase, kept, stealWindows, b.String())
}

// quiet reports whether an operation due at t falls in a kept window.
// Operations due after the last boundary belong to the last window.
func (w *stealWatch) quiet(t time.Time) bool {
	if w == nil {
		return true
	}
	i := int(t.Sub(w.start) / w.width)
	return w.keep[min(max(i, 0), stealWindows-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// vmHWM reads the peak resident set size of a process in MB from
// /proc/<pid>/status ("self" for this process).
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetHWM lowers a process's peak-RSS mark to its current RSS (Linux
// clear_refs value 5), so VmHWM afterwards covers only the measured
// phase. It reports whether the kernel accepted the reset.
func resetHWM(pid string) bool {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0) == nil
}

// cpuTicks reads the VM's cumulative CPU demand (busy ticks plus
// steal) and steal ticks from /proc/stat. Steal is time a vCPU had
// work but the hypervisor ran another guest, so steal ÷ demand is the
// share of the CPU time this VM asked for that it did not get.
func cpuTicks() (demand, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// user nice system idle iowait irq softirq steal guest guest_nice;
	// guest time is already counted in user.
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		switch i {
		case 0, 1, 2, 5, 6:
			demand += v
		case 7:
			demand += v
			steal = v
		}
	}
	return demand, steal
}
