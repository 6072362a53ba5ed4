// Command perfbench is the repository's benchmark: it drives one named
// workload against the real system from a single load-generator process,
// checks that every publication was delivered exactly once, and prints the
// result as one JSON object on its last line of output.
//
//	perfbench -workload pipeline -seed 1 -seconds 40 -trace 0 -node-bin <path>
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run (see NOTES.md).
// run.py builds the node and this program from the checkout and calls it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are one run's settings.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	nodeBin  string
	outDir   string
	// The fields below hold the documented workload's values (scale 1,
	// defaultSetups rounds, no drops) in every run of the command; only the
	// smoke test sets others.
	//
	// scale multiplies every offered rate.
	scale float64
	// setups is how many measured rounds an untraced TCP run makes, each on
	// a fresh set-up, or how many set-ups precede rebalance's one load;
	// setup_s is the median of their set-up times.
	setups int
	// dropDeliveries makes the harness discard that many deliveries before
	// accounting for them, so a test can check that loss is reported.
	dropDeliveries int64
}

// defaultSetups is params.setups in every run of the command.
const defaultSetups = 10

// report is everything one workload run measured: the gated end-to-end
// metrics of BENCHMARK.json, per-layer metrics (traced runs only), the
// figures that are printed but not gated (latency, throughput and those
// only some workloads have), and the delivery accounting.
type report struct {
	endToEnd  map[string]metric
	perLayer  map[string]layerMetric
	extra     map[string]metric
	attempted uint64
	failed    uint64
	// series holds the per-round or per-pair figures behind the medians,
	// for the detailed result file.
	series map[string][]float64
	// problems lists failed correctness checks; empty means correct.
	problems []string
	notes    []string
}

// layerMetric is a per-layer figure with the number of samples or calls it
// rests on.
type layerMetric struct {
	metric
	N uint64 `json:"n"`
}

func newReport() *report {
	return &report{
		endToEnd: map[string]metric{},
		perLayer: map[string]layerMetric{},
		extra:    map[string]metric{},
		series:   map[string][]float64{},
	}
}

func (r *report) layer(name, unit string, v float64, n uint64) {
	r.perLayer[name] = layerMetric{metric{v, unit}, n}
}

// account adds one drained phase's deliveries to the run's totals.
func (r *report) account(phase string, o outcome) {
	r.attempted += o.attempted
	r.failed += o.failed()
	r.problems = append(r.problems, o.problems(phase)...)
}

// addStray counts deliveries no ledger could attribute as failures.
func (r *report) addStray(n uint64) {
	if n > 0 {
		r.failed += n
		r.problems = append(r.problems, fmt.Sprintf("%d deliveries or frames with no readable tag", n))
	}
}

// errInvalidRun marks a run whose generator could not keep its schedule:
// its figures measure the generator, not the system, so it is not scored.
var errInvalidRun = errors.New("invalid run")

func main() {
	p := params{scale: 1, setups: defaultSetups}
	var traceFlag int
	flag.StringVar(&p.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&p.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&p.seconds, "seconds", 40, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&p.nodeBin, "node-bin", "", "path of the built dynamoth-node binary")
	flag.StringVar(&p.outDir, "out-dir", "", "directory for the detailed result file (empty = none)")
	flag.Parse()
	p.trace = traceFlag == 1

	rep, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, detail := finish(p, rep)
	printTable(p, rep, detail)
	if p.outDir != "" {
		if err := writeDetail(p, detail); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// run executes one workload, retrying a run the generator invalidated.
func run(p params) (*report, error) {
	w, ok := workloads[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", p.workload, strings.Join(workloadNames(), ", "))
	}
	if p.seconds <= 0 || p.scale <= 0 || p.setups <= 0 {
		return nil, fmt.Errorf("seconds, scale and setups must be positive")
	}
	if p.trace && p.outDir == "" {
		return nil, fmt.Errorf("a traced run needs -out-dir for its CPU profile")
	}
	if p.outDir != "" {
		if err := os.MkdirAll(p.outDir, 0o755); err != nil {
			return nil, fmt.Errorf("creating result directory: %w", err)
		}
	}
	if w.needsNode {
		if p.nodeBin == "" {
			return nil, fmt.Errorf("workload %s needs -node-bin", p.workload)
		}
		if _, err := os.Stat(p.nodeBin); err != nil {
			return nil, fmt.Errorf("node binary: %w", err)
		}
	}
	const attempts = 3
	var lastErr error
	for i := 0; i < attempts; i++ {
		rep, err := w.run(p)
		if err == nil {
			return rep, nil
		}
		if !errors.Is(err, errInvalidRun) {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: attempt %d not scored: %v\n", i+1, err)
		lastErr = err
	}
	return nil, fmt.Errorf("%d attempts, none valid: %w", attempts, lastErr)
}

// finish turns a report into the result line and the detailed document.
func finish(p params, rep *report) (result, map[string]any) {
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if p.trace {
		for name, m := range rep.perLayer {
			res.Metrics[name] = m.metric
		}
	} else {
		for name, m := range rep.endToEnd {
			res.Metrics[name] = m
		}
	}
	detail := map[string]any{
		"workload":    p.workload,
		"trace":       p.trace,
		"scale":       p.scale,
		"seconds":     p.seconds,
		"environment": environment(p.seed),
		"correct":     res.Correct,
		"problems":    rep.problems,
		"attempted":   rep.attempted,
		"failed":      rep.failed,
		"fail_ratio":  failRatio(rep.attempted, rep.failed),
		"end_to_end":  rep.endToEnd,
		"per_layer":   rep.perLayer,
		"not_gated":   rep.extra,
		"series":      rep.series,
		"notes":       rep.notes,
	}
	return res, detail
}

func failRatio(attempted, failed uint64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// printTable prints a human-readable summary ahead of the result line.
func printTable(p params, rep *report, detail map[string]any) {
	env, _ := json.Marshal(detail["environment"])
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", p.workload, p.seed, p.seconds, p.trace)
	fmt.Printf("environment %s\n", env)
	fmt.Printf("  %-38s %14s  %s\n", "fail_ratio", fmt.Sprintf("%.6f", failRatio(rep.attempted, rep.failed)),
		fmt.Sprintf("ratio (failed %d of %d deliveries)", rep.failed, rep.attempted))
	printMetrics := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Println(title)
		for _, name := range sortedKeys(ms) {
			fmt.Printf("  %-38s %14.4f  %s\n", name, ms[name].Value, ms[name].Unit)
		}
	}
	printMetrics("end-to-end, in the result line:", rep.endToEnd)
	printMetrics("also measured, not in the result line:", rep.extra)
	if len(rep.perLayer) > 0 {
		fmt.Println("per-layer (value, unit, samples or calls):")
		names := make([]string, 0, len(rep.perLayer))
		for name := range rep.perLayer {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := rep.perLayer[name]
			fmt.Printf("  %-38s %14.4f  %-8s n=%d\n", name, m.Value, m.Unit, m.N)
		}
	}
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	for _, pr := range rep.problems {
		fmt.Println("INCORRECT:", pr)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeDetail(p params, detail map[string]any) error {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return fmt.Errorf("creating result directory: %w", err)
	}
	data, err := json.MarshalIndent(detail, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if p.trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", p.workload, p.seed, trace, time.Now().UTC().Format("20060102T150405"))
	return os.WriteFile(filepath.Join(p.outDir, name), append(data, '\n'), 0o644)
}

// environment is the reproducibility record every result carries.
func environment(seed int64) map[string]any {
	return map[string]any{
		"seed":       seed,
		"git_commit": envOr("PERFBENCH_GIT_COMMIT", "unknown"),
		"source":     envOr("PERFBENCH_SOURCE_SHA256", "unknown"),
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"host":       "loopback TCP, node and generator share the host",
	}
}

func envOr(name, def string) string {
	if v := os.Getenv(name); v != "" {
		return v
	}
	return def
}
