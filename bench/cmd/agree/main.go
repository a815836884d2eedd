// Command agree measures the benchmark's own noise and derives its bounds
// from it. It runs two sets of full runs of the same code — every run
// with another seed, the workloads interleaved — and for each end-to-end
// metric and workload computes, per set, the quartile spread
// (Q3 − Q1) / median as Python's statistics.quantiles gives it, and
// between the sets, how far the second median is worse than the first.
// A metric's bound is the largest need over the four workloads:
//
//	bound = clamp(max(3 × spread, 2 × median shift), floor, 0.25)
//
// with floor 0.10, or 0.02 for datadir_mb (a byte count that repeats
// exactly for one seed), so that a spread stays below a third of its
// bound wherever 0.25 allows; setup_s gets the largest bound of all. The
// bounds are written into BENCHMARK.json, the raw runs and quartiles
// into NOISE.md, and the program fails if any spread exceeds its bound or
// any second median is worse than the first by more than the bound — the
// driver's own acceptance rule. A spread between a third of the bound
// and the bound is reported as tight. bench/agree.sh runs it.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/bench/harness"
)

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is BENCHMARK.json, field for field, so that rewriting the
// bounds keeps everything else.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

const maxBound = 0.25

// floor is the least bound a metric gets, however quiet it measured: a
// tenth, or two percent for the data directory's size, which repeats
// exactly for one seed and differs only with the seeded dataset.
func floor(name string) float64 {
	if name == "datadir_mb" {
		return 0.02
	}
	return 0.10
}

// need is the bound one metric needs on one workload: three times the
// wider of the two sets' quartile spreads, or twice the shift of the
// second median against the first in the metric's worse direction.
func need(m e2eMetric, a, b []float64) (spreadA, spreadB, shift, bound float64) {
	spread := func(xs []float64) float64 {
		q1, q2, q3 := harness.Quartiles(xs)
		return (q3 - q1) / q2
	}
	spreadA, spreadB = spread(a), spread(b)
	medA, medB := harness.Median(a), harness.Median(b)
	shift = (medB - medA) / medA
	if m.Better == "higher" {
		shift = -shift
	}
	return spreadA, spreadB, shift, math.Max(3*math.Max(spreadA, spreadB), 2*shift)
}

func main() {
	var (
		benchPath = flag.String("benchmark", "BENCHMARK.json", "the file whose bounds are rewritten")
		noisePath = flag.String("noise", "bench/NOISE.md", "where the raw runs and quartiles are recorded")
		runs      = flag.Int("runs", 10, "runs per set and workload")
		seed0     = flag.Int64("seed", 1, "first seed; every run of both sets gets its own")
	)
	flag.Parse()
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fatal(err)
	}

	// values[set][workload][metric] = one value per run.
	var values [2]map[string]map[string][]float64
	start := time.Now()
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for k := 0; k < *runs; k++ {
			for _, w := range bf.Workloads {
				seed := *seed0 + int64(set**runs+k)
				args := append(bf.Command[1:], "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
				out, err := exec.Command(bf.Command[0], args...).Output()
				if err != nil {
					fatal(fmt.Errorf("%s seed %d: %w\n%s", w.Name, seed, err, out))
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res struct {
					Correct bool
					Metrics map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
					fatal(fmt.Errorf("%s seed %d: no correct result (%v): %s", w.Name, seed, err, lines[len(lines)-1]))
				}
				if values[set][w.Name] == nil {
					values[set][w.Name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[set][w.Name][name] = append(values[set][w.Name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "agree: set %d run %d %s seed %d done (%.0f s so far)\n",
					set+1, k+1, w.Name, seed, time.Since(start).Seconds())
			}
		}
	}

	var md strings.Builder
	fp := harness.ReadFingerprint()
	fmt.Fprintf(&md, "# Benchmark noise\n\nWritten by `bench/agree.sh`. Two sets of %d runs per workload, every run with another seed "+
		"(set 1: %d–%d, set 2: %d–%d), `--seconds %d`, workloads interleaved.\n\n",
		*runs, *seed0, *seed0+int64(*runs)-1, *seed0+int64(*runs), *seed0+int64(2**runs)-1, bf.RunSeconds)
	fmt.Fprintf(&md, "Machine: %s, nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s. Wall time %.0f s.\n\n",
		fp.CPUModel, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.Kernel, fp.Commit, time.Since(start).Seconds())
	md.WriteString("`spread` is (Q3 − Q1) / median of a set (Python's `statistics.quantiles(v, n=4)`); " +
		"`shift` is how far set 2's median is worse than set 1's; `need` = max(3 × spread, 2 × shift). " +
		"A metric's bound is its largest need over the workloads, clamped to [floor, 0.25].\n\n")

	failed := false
	largest := 0.0
	for i := range bf.EndToEnd {
		m := &bf.EndToEnd[i]
		fmt.Fprintf(&md, "## %s (%s, %s is better)\n\n", m.Name, m.Unit, m.Better)
		md.WriteString("| workload | set | min | Q1 | median | Q3 | max | spread | shift | need |\n|---|---|---|---|---|---|---|---|---|---|\n")
		worst := 0.0
		type judged struct {
			workload                string
			spreadA, spreadB, shift float64
		}
		var all []judged
		for _, w := range bf.Workloads {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			sa, sb, shift, n := need(*m, a, b)
			worst = math.Max(worst, n)
			all = append(all, judged{w.Name, sa, sb, shift})
			for set, xs := range [][]float64{a, b} {
				q1, q2, q3 := harness.Quartiles(xs)
				lo, hi := xs[0], xs[0]
				for _, x := range xs {
					lo, hi = math.Min(lo, x), math.Max(hi, x)
				}
				sp, extra := sa, "| | |"
				if set == 1 {
					sp, extra = sb, fmt.Sprintf("| %+.3f | %.3f |", shift, n)
				}
				fmt.Fprintf(&md, "| %s | %d | %.5g | %.5g | %.5g | %.5g | %.5g | %.3f %s\n", w.Name, set+1, lo, q1, q2, q3, hi, sp, extra)
			}
		}
		m.Bound = math.Ceil(math.Min(math.Max(worst, floor(m.Name)), maxBound)*100) / 100
		largest = math.Max(largest, m.Bound)
		verdict := "ok"
		if worst > m.Bound {
			verdict = "tight: a spread is more than a third of the bound"
		}
		for _, j := range all {
			if m.Name != "setup_s" && math.Max(j.spreadA, j.spreadB) > m.Bound {
				verdict = fmt.Sprintf("FAIL: spread on %s exceeds the bound", j.workload)
				failed = true
			}
			if j.shift > m.Bound {
				verdict = fmt.Sprintf("FAIL: set 2's median on %s is worse than set 1's by more than the bound", j.workload)
				failed = true
			}
		}
		fmt.Fprintf(&md, "\nbound **%.2f** (need %.3f) — %s\n\n", m.Bound, worst, verdict)
	}
	for i := range bf.EndToEnd {
		if bf.EndToEnd[i].Name == "setup_s" {
			bf.EndToEnd[i].Bound = largest // set-up gets the largest bound
		}
	}

	md.WriteString("## Raw runs\n\n")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			for set := range values {
				fmt.Fprintf(&md, "- %s %s set %d:", w.Name, m.Name, set+1)
				for _, x := range values[set][w.Name][m.Name] {
					fmt.Fprintf(&md, " %.6g", x)
				}
				md.WriteString("\n")
			}
		}
	}
	if err := os.WriteFile(*noisePath, []byte(md.String()), 0o644); err != nil {
		fatal(err)
	}
	out, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*benchPath, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	for _, m := range bf.EndToEnd {
		fmt.Printf("%-24s bound %.2f\n", m.Name, m.Bound)
	}
	if failed {
		fmt.Println("agree: FAILED — see", *noisePath)
		os.Exit(1)
	}
	fmt.Println("agree: the two sets agree within the bounds; see", *noisePath)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "agree:", err)
	os.Exit(1)
}
