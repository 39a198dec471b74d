// Command e2ebench is the attack-pipeline benchmark: one process runs
// one workload, checks its outputs, and prints every metric by name
// and unit, ending with a one-line JSON result.
//
//	bash e2ebench/run.sh --workload attack-e2e --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for the reason each exists):
//
//	attack-e2e        TrainVictim → InjectBackdoor → HammerOnline → Evaluate
//	fleet-sweep       a 24-campaign fleet through an in-process campaignd
//	serve-under-fire  open-loop Poisson traffic into serve.Server beside a flip storm
//
// With --trace 0 the run measures the workload untraced and reports
// every end-to-end metric; what each means for the workload is in
// e2eMeaning. With --trace 1 it runs the layer suite (runLayers), the
// same for every workload, with spans recorded around the benchmark's
// own calls into each layer, and reports every per-layer metric plus
// the tracing overhead of the workload's own operation. Spans are kept
// in memory and written to .bench_build/traces/ when the run ends.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runDir is where a run keeps its scratch state and traces, relative to
// the checkout root the benchmark is started from.
const runDir = ".bench_build"

// result is what one workload run hands back to main.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// checks are the correctness checks in the order they ran.
	checks []check
	// params are the workload's fixed parameters for the header.
	params []string
}

type check struct {
	name string
	ok   bool
	info string
}

// checkf records a correctness check; a false ok fails the run.
func (r *result) checkf(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, info: fmt.Sprintf(format, args...)})
}

func (r *result) set(name string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]float64{}
	}
	r.metrics[name] = v
}

func (r *result) param(format string, args ...any) {
	r.params = append(r.params, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(opts options) (*result, error)
}

var workloads = []workload{
	{"attack-e2e", runAttack},
	{"fleet-sweep", runFleet},
	{"serve-under-fire", runServe},
}

type options struct {
	seed    int64
	seconds float64
	trace   bool
	tr      *tracer
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run: attack-e2e, fleet-sweep or serve-under-fire")
	seed := flag.Int64("seed", 1, "workload seed; all inputs are generated from it")
	seconds := flag.Int("seconds", 10, "measurement length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload {attack-e2e|fleet-sweep|serve-under-fire} --seed N --seconds N≥1 --trace {0|1}\n")
		return 2
	}
	if err := os.MkdirAll(filepath.Join(runDir, "tmp"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}

	opts := options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1}
	if opts.trace {
		opts.tr = newTracer()
	}
	env := environment(*seed)
	var res *result
	var err error
	if opts.trace {
		res, err = runLayers(opts, wl.name)
	} else {
		res, err = wl.run(opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", wl.name, err)
		return 1
	}
	if _, ok := res.metrics["peak_rss_mb"]; !ok && !opts.trace {
		res.set("peak_rss_mb", peakRSSMB())
	}

	fmt.Printf("== e2ebench %s (seed %d, %ds, trace %d) ==\n", wl.name, *seed, *seconds, *trace)
	for _, l := range env {
		fmt.Println("env   " + l)
	}
	for _, p := range res.params {
		fmt.Println("param " + p)
	}
	correct := true
	for _, c := range res.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
			correct = false
		}
		fmt.Printf("check %s %s: %s\n", status, c.name, c.info)
	}

	want := wantMetrics(opts.trace)
	out := map[string]metricValue{}
	for _, m := range want {
		v, ok := res.metrics[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: metric %s was not measured\n", wl.name, m.Name)
			return 1
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
		about := "moves " + m.Moves
		if !m.PerLayer {
			about = e2eMeaning[m.Name][wl.name]
		}
		fmt.Printf("metric %-28s %14.6g %-6s (%s is better; %s)\n", m.Name, v, m.Unit, m.Better, about)
	}
	if opts.trace {
		path, err := opts.tr.write(wl.name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace %d spans written to %s\n", opts.tr.len(), path)
	}

	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, res.attempted, res.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wantMetrics lists the metrics a run reports, sorted by name: every
// end-to-end metric untraced, every per-layer metric traced.
func wantMetrics(traced bool) []metricDef {
	var out []metricDef
	for _, m := range metricDefs {
		if m.PerLayer == traced {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// runLayers is the traced run: the layer suite, the same for every
// workload so every workload reports every per-layer metric. It runs
// the attack pipeline from the layers' public functions with the layer
// probes, the fleet's engine-only run with daemon fleets, and serving
// windows under the flip storm. trace.overhead_pct is the overhead of
// the workload's own operation; for attack-e2e that needs an untraced
// public attack as well, after the same warm-up as the untraced run,
// whose outcome the traced one must reproduce.
func runLayers(opts options, wl string) (*result, error) {
	res := &result{}
	var public *outcome
	publicS := 0.0
	if wl == wAttack {
		attackParams(res)
		for i := 0; i < attackSetups; i++ {
			if err := attackSetup(opts.seed + int64(i)); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		pub, s, err := checkedPublicAttack(res)
		if err != nil {
			return nil, err
		}
		public, publicS = &pub, s
	}
	attackS, err := attackLayers(opts, res, public)
	if err != nil {
		return nil, err
	}
	fleetOverhead, err := fleetLayers(opts, res)
	if err != nil {
		return nil, err
	}
	serveOverhead, err := serveLayers(opts, res)
	if err != nil {
		return nil, err
	}
	overhead := map[string]float64{
		wAttack: 100 * (attackS - publicS) / publicS,
		wFleet:  fleetOverhead,
		wServe:  serveOverhead,
	}[wl]
	fmt.Printf("tracing overhead of %s: %.2f%%\n", wl, overhead)
	res.set("trace.overhead_pct", overhead)
	return res, nil
}

// environment is the report header: what machine and build produced
// the numbers.
func environment(seed int64) []string {
	model, flags := cpuInfo()
	return []string{
		fmt.Sprintf("GOMAXPROCS=%d nproc=%d GOOS/GOARCH=%s/%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH),
		"cpu " + model,
		"cpu-flags " + flags,
		"go " + runtime.Version(),
		"commit " + commit(),
		fmt.Sprintf("seed %d", seed),
	}
}

// cpuInfo returns the CPU model and the SIMD flags the kernels select
// on, from /proc/cpuinfo where it exists.
func cpuInfo() (model, flags string) {
	model, flags = "unknown", "unknown"
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return
	}
	for _, l := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(l, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if flags == "unknown" {
				var keep []string
				for _, f := range strings.Fields(v) {
					switch f {
					case "sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512bw", "avx512vnni":
						keep = append(keep, f)
					}
				}
				flags = strings.Join(keep, ",")
			}
		}
	}
	return
}

// commit is the source revision the launcher found (E2EBENCH_COMMIT),
// or "unknown" in a checkout that is not a git repository.
func commit() string {
	if c := os.Getenv("E2EBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// resetPeakRSS restarts the process's resident-set high-water mark, so
// the next peakRSSMB covers only what runs after it.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(l, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
