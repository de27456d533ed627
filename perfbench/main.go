// Command perfbench is the repository benchmark: it measures the
// evaluation engines through the library, the evaluation daemon under
// an open-loop request mix, and the durable write path with a standing
// subscription, and prints one JSON result line. See README.md.
//
// Run it from the root of a checkout through run.sh, which builds this
// program and cmd/unchained-serve from source:
//
//	bash perfbench/run.sh --workload serve-eval --seed 3 --seconds 25 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run performs its whole set-up;
// setup_s is their median and the last set-up is the one measured.
const setupReps = 3

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the
// workload names and the metric lists, which fix exactly what a run
// prints.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp benchSpec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	serveBin string
	workDir  string
	// capacity replaces the open loop by a closed loop on every
	// connection, to measure the rate the connections sustain.
	capacity bool
}

// timeSetup performs the workload's set-up setupReps times, tearing
// down all but the last, and records their median duration as setup_s.
func (c *config) timeSetup(r *result, setup func() (teardown func(), err error)) error {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		teardown, err := setup()
		ds = append(ds, time.Since(t).Seconds())
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if i < setupReps-1 {
			teardown()
		}
	}
	r.set("setup_s", "s", median(ds))
	return nil
}

// reportCapacity prints the rate a closed-loop phase sustained.
func (c *config) reportCapacity(n, conns int, start time.Time) {
	if c.capacity {
		el := time.Since(start).Seconds()
		fmt.Fprintf(os.Stderr, "perfbench: capacity: %d operations in %.2f s = %.1f op/s with %d connection(s)\n", n, el, float64(n)/el, conns)
	}
}

// writeSpans writes a traced run's spans as JSONL under the work
// directory and reports where.
func (c *config) writeSpans(sp *spans) error {
	path := filepath.Join(c.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", c.workload, c.seed))
	if err := sp.writeJSONL(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one run: operations attempted and failed, the
// reasons for failures, whether the run itself is valid, and every
// metric measured.
type result struct {
	attempted int
	failed    int
	invalid   []string
	reasons   map[string]int
	values    map[string]metricValue
}

func newResult() *result {
	return &result{reasons: map[string]int{}, values: map[string]metricValue{}}
}

func (r *result) set(name, unit string, v float64) { r.values[name] = metricValue{v, unit} }

// fail counts one failed operation under its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.reasons[fmt.Sprintf(format, args...)]++
}

// invalidate marks the whole run as not a valid measurement.
func (r *result) invalidate(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// setRSS records peak_rss_mb of process pid. reset says whether the
// peak mark was lowered after set-up, so it covers the measured phase.
func (r *result) setRSS(pid string, reset bool) error {
	mb, err := vmHWM(pid)
	if err != nil {
		return err
	}
	if !reset {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS mark could not be reset; peak_rss_mb includes set-up")
	}
	r.set("peak_rss_mb", "MB", mb)
	return nil
}

// output renders the result line: every metric of the list, in its
// BENCHMARK.json unit. End-to-end metrics must all be measured;
// per-layer metrics of a layer the workload does not run are 0.
func (r *result) output(defs []metricDef, required bool) (string, error) {
	type line struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	l := line{Correct: r.failed == 0 && len(r.invalid) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		switch {
		case !ok && required:
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		case !ok:
			v = metricValue{0, d.Unit}
		case v.Unit != d.Unit:
			return "", fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", d.Name, v.Unit, d.Unit)
		}
		l.Metrics[d.Name] = v
	}
	b, err := json.Marshal(l)
	return string(b), err
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: paper-engines, serve-eval or facts-subscribe")
	seed := flag.Int64("seed", 1, "input seed (with -steady, the first of consecutive seeds)")
	seconds := flag.Int("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	steady := flag.Int("steady", 0, "run every workload (or -workload) this many times with consecutive seeds and print each metric's median and quartiles")
	serveBin := flag.String("serve-bin", "", "unchained-serve binary (run.sh builds it)")
	workDir := flag.String("work-dir", "", "scratch directory inside the checkout for data and spans (run.sh sets it)")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition")
	capacity := flag.Bool("capacity", false, "run the open-loop workloads closed loop and print the sustained rate (not a measurement run)")
	flag.Parse()

	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *serveBin == "" || *workDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -serve-bin and -work-dir are required; run through perfbench/run.sh")
		return 2
	}
	if *steady > 0 {
		if err := runSteady(spec, *steady, *workload, *seed, *seconds, *trace, *serveBin, *workDir, *specPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	cfg := &config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, serveBin: *serveBin, workDir: *workDir, capacity: *capacity,
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	line, err := runOne(spec, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

var workloads = map[string]func(*config, *result) error{
	"paper-engines":   runPaperEngines,
	"serve-eval":      runServeEval,
	"facts-subscribe": runFactsSubscribe,
}

func runOne(spec *benchSpec, cfg *config) (string, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return "", fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return "", err
	}
	r := newResult()
	demand0, steal0 := cpuTicks()
	if err := fn(cfg, r); err != nil {
		return "", err
	}
	if demand1, steal1 := cpuTicks(); demand1 > demand0 {
		fmt.Fprintf(os.Stderr, "perfbench: CPU steal during the run: %.1f%% of the CPU time asked for\n", 100*(steal1-steal0)/(demand1-demand0))
	}
	reasons := make([]string, 0, len(r.reasons))
	for k, n := range r.reasons {
		reasons = append(reasons, fmt.Sprintf("%dx %s", n, k))
	}
	sort.Strings(reasons)
	for _, s := range reasons {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", s)
	}
	for _, s := range r.invalid {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", s)
	}
	if r.attempted == 0 {
		return "", errors.New("no operation was attempted")
	}
	defs, required := spec.EndToEnd, true
	if cfg.trace {
		defs, required = spec.PerLayer, false
	}
	return r.output(defs, required)
}

// issueNames maps the generic end-to-end metric names onto each
// workload's own quantity, for the steadiness report.
var issueNames = map[string]map[string]string{
	"paper-engines": {
		"latency_ms_p50": "eval_ms_geomean", "latency_ms_p90": "eval_ms_p90_geomean",
		"secondary_ms_p50": "round_ms_p50", "secondary_ms_p90": "round_ms_p90",
	},
	"serve-eval": {
		"latency_ms_p50": "req_ms_p50", "latency_ms_p90": "req_ms_p90",
		"secondary_ms_p50": "miss_req_ms_p50", "secondary_ms_p90": "miss_req_ms_p90",
	},
	"facts-subscribe": {
		"latency_ms_p50": "facts_ack_ms_p50", "latency_ms_p90": "facts_ack_ms_p90",
		"secondary_ms_p50": "delta_lag_ms_p50", "secondary_ms_p90": "delta_lag_ms_p90",
	},
}

// runSteady runs each workload n times, seeds seed..seed+n-1, as child
// processes of this binary, and prints every metric's median, first
// and third quartile, and quartile spread as a share of the median,
// next to the metric's bound.
func runSteady(spec *benchSpec, n int, only string, seed int64, seconds, trace int, serveBin, workDir, specPath string) error {
	defs := spec.EndToEnd
	if trace == 1 {
		defs = spec.PerLayer
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		vals := map[string][]float64{}
		attempted, failed, incorrect := 0, 0, 0
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			line, err := runChild(self, w.Name, s, seconds, trace, serveBin, workDir, specPath)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, s, err)
			}
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return fmt.Errorf("%s seed %d: bad result line: %w", w.Name, s, err)
			}
			attempted += res.Attempted
			failed += res.Failed
			if !res.Correct {
				incorrect++
			}
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", w.Name, s, line)
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d, %d s each, trace %d\n", w.Name, n, seed, seed+int64(n)-1, seconds, trace)
		fmt.Printf("   error_ratio %.6f (%d failed of %d attempted), runs marked incorrect: %d\n",
			float64(failed)/float64(max(attempted, 1)), failed, attempted, incorrect)
		fmt.Printf("   %-28s %-22s %-6s %12s %12s %12s %8s %6s\n", "metric", "as", "unit", "median", "q1", "q3", "spread", "bound")
		for _, d := range defs {
			xs := vals[d.Name]
			q1, med, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.2f", d.Bound)
			}
			fmt.Printf("   %-28s %-22s %-6s %12.4f %12.4f %12.4f %8.4f %6s\n",
				d.Name, issueNames[w.Name][d.Name], d.Unit, med, q1, q3, spread, bound)
		}
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which the steadiness rule is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		v := 0.0
		if len(xs) == 1 {
			v = xs[0]
		}
		return v, v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	at := func(j int) float64 {
		// position j*m/4 in 1-based ranks, clamped to the sample.
		pos := float64(j*m) / 4
		i := int(pos)
		frac := pos - float64(i)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (s[i]-s[i-1])*frac
	}
	return at(1), at(2), at(3)
}

// runChild runs one benchmark run as a child process and returns its
// result line (the last line of its standard output).
func runChild(self, workload string, seed int64, seconds, trace int, serveBin, workDir, specPath string) (string, error) {
	cmd := exec.Command(self, "-serve-bin", serveBin, "-work-dir", workDir, "-spec", specPath,
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1], nil
}
