// Command feobench is the repository's benchmark: it drives `feo serve`
// as a separate process over loopback with one of four deterministic
// workloads, validates every response, and prints every metric by name
// and unit. bench/run.sh builds it (and cmd/feo) and runs it; see
// bench/README.md for the glossary.
//
//	feobench -feo PATH -work DIR [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/bench/harness"
	"repro/bench/workload"
	"repro/feo"
	"repro/internal/foodkg"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four, one after another)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same dataset and op list")
		seconds = flag.Float64("seconds", 10, "length of the measured phase at the seed commit (sizes the op list)")
		trace   = flag.Int("trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
		feoBin  = flag.String("feo", "", "path of the built cmd/feo binary")
		work    = flag.String("work", "", "scratch directory for data directories, logs and result files")
		smoke   = flag.Bool("smoke", false, "tiny dataset, one repetition, no canary: an end-to-end self-test")
		child   = flag.String("seed-child", "", "internal: seed this data directory and exit")
	)
	flag.Parse()
	if *child != "" {
		if err := seedDataDir(*child, *name, *seed, *seconds, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, "feobench seed child:", err)
			os.Exit(1)
		}
		return
	}
	if *feoBin == "" || *work == "" {
		fmt.Fprintln(os.Stderr, "feobench: -feo and -work are required (bench/run.sh sets them)")
		os.Exit(2)
	}
	specs := workload.Specs()
	if *name != "" {
		s, ok := workload.Lookup(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "feobench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		specs = []workload.Spec{s}
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(*work, "results"), 0o755); err != nil {
		fatal(err)
	}
	// Everything a run leaves behind lives under one directory, removed
	// on every exit path; the servers die with this process (Pdeathsig).
	scratch, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(scratch)
		os.Exit(130)
	}()
	code := 0
	for _, spec := range specs {
		cfg := runConfig{
			spec: spec, dataset: spec.Dataset, seed: *seed, seconds: *seconds,
			setups: 3, recoveries: 5, canary: true, trace: *trace == 1,
			feoBin: *feoBin, self: self, work: scratch, results: filepath.Join(*work, "results"),
		}
		if *smoke {
			cfg.dataset, cfg.setups, cfg.recoveries, cfg.canary = workload.KGSmoke, 1, 1, false
		}
		correct, err := report(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "feobench:", err)
			code = 1
			break
		}
		if !correct {
			code = 1
		}
	}
	os.RemoveAll(scratch)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "feobench:", err)
	os.Exit(1)
}

// canaryTolerance is how far the CPU canary may move between the start
// and the end of a run before the run is flagged noisy and repeated once.
const canaryTolerance = 0.15

// attempt is one full pass: the server run, then — in this process, after
// the server is gone — the oracle cross-check and the traced replay.
func attempt(cfg runConfig) (*outcome, error) {
	kgCfg := cfg.dataset.Config()
	list := cfg.spec.Generate(cfg.seed, cfg.seconds, foodkg.Generate(kgCfg))
	out, v, err := run(cfg, list)
	if err != nil || !(cfg.spec.Oracle || cfg.trace) {
		return out, err
	}
	// One in-process session on the same seeded dataset serves both: the
	// oracle reads it before the replay writes to it. It is generated and
	// materialized here, never read from the server's data directory; the
	// replay needs it durable.
	opts := feo.Options{Data: feo.DataSynthetic, KG: kgCfg}
	if cfg.trace {
		if opts.DataDir, err = os.MkdirTemp(cfg.work, "session-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(opts.DataDir)
	}
	sess, err := feo.Open(opts)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if cfg.spec.Oracle {
		checkOracle(out, sess, list, v)
	}
	if cfg.trace {
		err = replay(out, cfg, sess)
	}
	return out, err
}

// report runs cfg (twice if the canary says the machine changed speed
// under the first attempt; both attempts are printed, the second is
// reported), writes the result file, and ends with the driver's JSON
// line. It reports whether the run was correct.
func report(cfg runConfig) (bool, error) {
	var out *outcome
	for n := 1; n <= 2; n++ {
		var err error
		if out, err = attempt(cfg); err != nil {
			return false, err
		}
		b, a := out.vals["harness.canary_ms.before"], out.vals["harness.canary_ms.after"]
		noisy := cfg.canary && math.Abs(a-b)/math.Min(a, b) > canaryTolerance
		printOutcome(cfg, out, n, noisy)
		if !noisy {
			break
		}
	}
	metrics := map[string]metricJSON{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		metrics[d.Name] = metricJSON{out.vals[d.Name], d.Unit}
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	file, err := json.MarshalIndent(fileResult{
		result: res, Workload: cfg.spec.Name, Dataset: cfg.dataset.Name, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, TailPercentile: out.tailLevel, LatencySamples: out.samples,
		Errors: out.errors, Machine: harness.ReadFingerprint(), All: out.vals,
	}, "", "  ")
	if err != nil {
		return false, err
	}
	trace := 0
	if cfg.trace {
		trace = 1
	}
	path := filepath.Join(cfg.results, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.spec.Name, cfg.seed, trace))
	if err := os.WriteFile(path, append(file, '\n'), 0o644); err != nil {
		return false, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", line)
	return res.Correct, nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// fileResult is the result file: the contract line plus everything
// needed to judge whether two files may be compared.
type fileResult struct {
	result
	Workload       string              `json:"workload"`
	Dataset        string              `json:"dataset"`
	Seed           int64               `json:"seed"`
	Seconds        float64             `json:"seconds"`
	Trace          bool                `json:"trace"`
	TailPercentile float64             `json:"op_tail_percentile"`
	LatencySamples int                 `json:"latency_samples"`
	Errors         []string            `json:"errors,omitempty"`
	Machine        harness.Fingerprint `json:"machine"`
	All            map[string]float64  `json:"all_metrics"`
}

func printOutcome(cfg runConfig, out *outcome, attempt int, noisy bool) {
	fmt.Printf("== %s  dataset=%s seed=%d seconds=%g attempt=%d", cfg.spec.Name, cfg.dataset.Name, cfg.seed, cfg.seconds, attempt)
	if noisy {
		fmt.Printf("  NOISY: the CPU canary moved more than %.0f %% under this attempt", canaryTolerance*100)
	}
	fmt.Printf("\n   failed %d / attempted %d; op_tail_ms is p%g of %d samples\n", out.failed, out.attempted, out.tailLevel, out.samples)
	for _, e := range out.errors {
		fmt.Printf("   error: %s\n", e)
	}
	for _, d := range endToEnd {
		fmt.Printf("   %-36s %14.4f %s\n", d.Name, out.vals[d.Name], d.Unit)
	}
	fmt.Println("   -- per layer (no bound)")
	for _, d := range perLayer {
		if v, ok := out.vals[d.Name]; ok {
			fmt.Printf("   %-36s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if at, ok := out.vals["durable.compaction_at_share"]; ok {
		fmt.Printf("   the compaction fell at %.0f %% of the measured ops\n", at*100)
	}
}
