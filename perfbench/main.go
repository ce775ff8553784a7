// Command perfbench is the repository benchmark. It drives the real
// program through its public entry points — serve.Open and
// serve.NewServer over loopback HTTP for the live controller, sim.Run
// for the batch planner comparison — with inputs generated from -seed,
// checks every output against an independent replay, and prints one
// JSON result line last:
//
//	perfbench --workload ingest-wal --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the per-layer metrics of a separate traced run. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics a user of the system sees, reported by every
// workload with tracing off. Units match BENCHMARK.json.
var endToEnd = map[string]string{
	"setup_s":      "s",
	"op_p50_ms":    "ms",
	"op_tail_ms":   "ms",
	"slots_per_s":  "1/s",
	"peak_rss_mib": "MiB",
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	correct           bool
	e2e               map[string]float64
	layer             map[string]float64
	// lines are human-readable notes printed before the result.
	lines []string
}

// maxFailLines caps the FAIL lines printed for one run; the result's
// failed count still counts every failure.
const maxFailLines = 20

// fail counts a failed operation or check and describes it.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.correct = false
	switch {
	case o.failed <= maxFailLines:
		o.lines = append(o.lines, "FAIL: "+fmt.Sprintf(format, args...))
	case o.failed == maxFailLines+1:
		o.lines = append(o.lines, "FAIL: (further failures not listed)")
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds int
	traced  bool
	// workDir is this run's scratch directory inside the checkout.
	workDir string
}

// workloads maps each workload name to its runner. BENCHMARK.json says
// why each was chosen.
var workloads = map[string]func(ctx context.Context, rc runConfig) (*outcome, error){
	"ingest-wal":    runIngestWAL,
	"batch-compare": runBatchCompare,
}

// instanceSeed fixes every workload's topology and demand-rate tensor
// (the paper's default seed). --seed draws what varies between runs —
// the arrivals of the live workload, the forecast noise of the batch
// one — so solver work stays comparable across seeds.
const instanceSeed = 1

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed gain is re-checked on it before it is reported.
const heldOutSeed = 7919

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: ingest-wal or batch-compare")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	workDir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rc := runConfig{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, workDir: workDir}
	env := stamp(rc)
	env["workload"] = *name
	envLine, _ := json.Marshal(env)
	fmt.Printf("env: %s\n", envLine)

	out, err := runWorkload(ctx, rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	fmt.Printf("fail_ratio: %d/%d = %g\n", out.failed, out.attempted, ratio(float64(out.failed), float64(out.attempted)))

	names, values := endToEnd, out.e2e
	if rc.traced {
		names, values = perLayer, out.layer
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	for n, unit := range names {
		v, ok := values[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, n)
			return 1
		}
		res.Metrics[n] = metric{Value: v, Unit: unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return fmt.Sprint(ns)
}
