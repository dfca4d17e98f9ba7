// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It generates its inputs from a seed, drives the AAPSM flow through its
// public entry points, checks every output, and prints one JSON result as
// the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload flat_flow|hier_array|edit_session --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics declared in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, measured
// by a separate traced run. See README.md for what each metric means and
// which layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is the parsed command line.
type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchFile is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must print.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "input generator seed")
		seconds  = flag.Int("seconds", 10, "measured duration in seconds")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	)
	flag.Parse()
	cfg := runConfig{workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// declPath is where the metric declarations live, relative to the
// repository root the benchmark runs from.
const declPath = "BENCHMARK.json"

func run(cfg runConfig) error {
	raw, err := os.ReadFile(declPath)
	if err != nil {
		return err
	}
	var decl benchFile
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("%s: %w", declPath, err)
	}
	known := false
	for _, w := range decl.Workloads {
		known = known || w.Name == cfg.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}

	rep := newReport(cfg)
	ctx := context.Background()
	switch cfg.workload {
	case "flat_flow", "hier_array":
		gen, design := flatFlowInput, "d5"
		if cfg.workload == "hier_array" {
			gen, design = hierArrayInput, "d3"
		}
		p, err := suiteParams(design)
		if err != nil {
			return err
		}
		canon, err := gen(p)
		if err != nil {
			return err
		}
		p.Seed = cfg.seed
		in, err := gen(p)
		if err != nil {
			return err
		}
		if err := flowWorkload(ctx, cfg, in, canon, rep); err != nil {
			return err
		}
	case "edit_session":
		p, err := suiteParams("d4")
		if err != nil {
			return err
		}
		canon, err := editSessionInput(p)
		if err != nil {
			return err
		}
		p.Seed = cfg.seed
		in, err := editSessionInput(p)
		if err != nil {
			return err
		}
		if err := editWorkload(ctx, cfg, in, canon, rep); err != nil {
			return err
		}
	default:
		return fmt.Errorf("workload %q is not implemented", cfg.workload)
	}
	want := decl.EndToEnd
	got := rep.e2e
	if cfg.trace {
		want, got = decl.PerLayer, rep.perLayer
	}
	return rep.print(want, got)
}

// report accumulates one run's outcome.
type report struct {
	cfg       runConfig
	env       map[string]any
	attempted int
	failed    int
	e2e       map[string]float64
	perLayer  map[string]float64
	lines     []string // human-readable lines printed before the result
	cpu0      cpuTimes // machine CPU counters at the start of the run
}

func newReport(cfg runConfig) *report {
	return &report{
		cfg: cfg,
		env: map[string]any{
			"workload":   cfg.workload,
			"seed":       cfg.seed,
			"seconds":    cfg.dur.Seconds(),
			"trace":      cfg.trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
		},
		e2e:      map[string]float64{},
		perLayer: map[string]float64{},
		cpu0:     readCPUTimes(),
	}
}

// op counts one attempted operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: failed operation:", err)
		}
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// setup records the set-up repetitions.
func (r *report) setup(xs []float64) {
	r.e2e["setup_s"] = median(xs)
	r.linef("setup_s %.4f s (median of %d set-ups)", median(xs), len(xs))
}

// latency records the timed operation samples (milliseconds) and returns
// their median and tail.
func (r *report) latency(xs []float64) (p50, tl, pct float64) {
	tl, pct = tail(xs)
	r.e2e["op_p50_ms"] = median(xs)
	return median(xs), tl, pct
}

// loadTail records the tail of the timed operation samples (milliseconds)
// of a traced run, with its percentile and sample count.
func (r *report) loadTail(xs []float64) {
	tl, pct := tail(xs)
	r.perLayer["load.op_tail_ms"] = tl
	r.perLayer["load.op_tail_pct"] = pct
	r.perLayer["load.op_samples"] = float64(len(xs))
}

// flows records the closed-loop flow samples (milliseconds). ops_per_s
// counts flows per second of flow time, excluding the output checks
// between flows.
func (r *report) flows(xs []float64) {
	p50, tl, pct := r.latency(xs)
	total := 0.0
	for _, x := range xs {
		total += x / 1e3
	}
	r.e2e["ops_per_s"] = ratio(float64(len(xs)), total)
	r.linef("flow_p50_s %.4f s", p50/1e3)
	r.linef("flow_tail_s %.4f s (p%.1f of %d flows)", tl/1e3, pct, len(xs))
	r.linef("flows_per_s %.3f 1/s", r.e2e["ops_per_s"])
}

// edits records the served load.
func (r *report) edits(l *loadResult) {
	lat := make([]float64, len(l.edits))
	for i, e := range l.edits {
		lat[i] = ms(e.latency)
	}
	p50, tl, pct := r.latency(lat)
	r.linef("edit_p50_ms %.3f ms", p50)
	r.linef("edit_tail_ms %.3f ms (p%.1f of %d edits)", tl, pct, len(lat))
	reads := make([]float64, len(l.reads))
	for i, d := range l.reads {
		reads[i] = ms(d)
	}
	rt, pct := tail(reads)
	r.linef("read_p50_ms %.3f ms", median(reads))
	r.linef("read_tail_ms %.3f ms (p%.1f of %d samples)", rt, pct, len(reads))
	secs := l.elapsed.Seconds()
	r.e2e["ops_per_s"] = float64(len(l.edits)) / secs
	r.linef("edits_per_s %.3f 1/s (%d edits in %.2f s)", r.e2e["ops_per_s"], len(l.edits), secs)
	r.linef("requests_per_s %.3f 1/s (edits and reads)", float64(len(l.edits)+len(l.reads))/secs)
}

// quality records the deterministic quality figures.
func (r *report) quality(conflicts int, area float64) {
	r.e2e["conflicts"] = float64(conflicts)
	r.e2e["area_increase_pct"] = area
}

// serverLayers records the server-side breakdown of a traced load.
func (r *report) serverLayers(l *loadResult, before, after map[string]float64) {
	var queue, solve, other []float64
	for _, e := range l.edits {
		queue = append(queue, ms(e.queue))
		solve = append(solve, ms(e.solve))
		other = append(other, ms(e.latency-e.queue-e.solve))
	}
	reads := make([]float64, len(l.reads))
	for i, d := range l.reads {
		reads[i] = ms(d)
	}
	batches := after[mBatches] - before[mBatches]
	items := after[mItems] - before[mItems]
	coalesced := after[mReads] - before[mReads]
	rt, _ := tail(reads)
	lat := make([]float64, len(l.edits))
	for i, e := range l.edits {
		lat[i] = ms(e.latency)
	}
	r.loadTail(lat)
	p := r.perLayer
	p["server.edit_queue_ms"] = median(queue)
	p["server.edit_solve_ms"] = median(solve)
	p["server.edit_other_ms"] = median(other)
	p["server.edit_batches"] = batches
	p["server.edit_batch_items"] = items
	p["server.batch_size"] = ratio(items, batches)
	p["server.reads"] = float64(len(l.reads))
	p["server.reads_coalesced"] = coalesced
	p["server.reads_coalesced_share"] = ratio(coalesced, float64(len(l.reads)))
	p["server.read_bytes"] = mean(l.readB)
	p["server.read_p50_ms"] = median(reads)
	p["server.read_tail_ms"] = rt
	p["server.edits_per_s"] = float64(len(l.edits)) / l.elapsed.Seconds()
}

// print writes the report lines, the environment record and the result.
// Every declared metric must have been measured and nothing else reported;
// a metric a workload does not exercise is reported as 0.
func (r *report) print(want []metricDecl, got map[string]float64) error {
	if !r.cfg.trace {
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		got["peak_rss_mb"] = peak
		r.linef("peak_rss_mb %.1f MB", peak)
		r.linef("conflicts %.0f; area_increase_pct %.4f %%", got["conflicts"], got["area_increase_pct"])
	}
	r.linef("error_rate %.6f (%d failed of %d attempted)", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	cpu1 := readCPUTimes()
	r.env["cpu_steal_share"] = ratio(cpu1.steal-r.cpu0.steal, cpu1.total-r.cpu0.total)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(want))
	for _, m := range want {
		// A per-layer metric may be missing: the workload does not exercise
		// that layer, and it reads 0.
		v, ok := got[m.Name]
		if !ok && !r.cfg.trace {
			return fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		metrics[m.Name] = metric{v, m.Unit}
	}
	var extra []string
	for name := range got {
		if _, ok := metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) != 0 {
		sort.Strings(extra)
		return fmt.Errorf("measured metrics missing from BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	if r.cfg.trace {
		names := make([]string, 0, len(metrics))
		for n := range metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			r.linef("%-34s %14.6g %s", n, metrics[n].Value, metrics[n].Unit)
		}
	}
	for _, l := range r.lines {
		fmt.Println(l)
	}
	env, err := json.Marshal(map[string]any{"env": r.env})
	if err != nil {
		return err
	}
	fmt.Println(string(env))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuTimes are the machine-wide CPU tick counters of /proc/stat.
type cpuTimes struct{ steal, total float64 }

// readCPUTimes reads the aggregate "cpu" line of /proc/stat; the share of
// ticks stolen by the hypervisor during a run goes into the environment
// record, because it explains run-to-run noise. Zero when unavailable.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal
			t.total += x
		}
		if i == 7 {
			t.steal = x
		}
	}
	return t
}
