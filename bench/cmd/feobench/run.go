package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/bench/harness"
	"repro/bench/workload"
)

// runConfig is one benchmark run: a workload at a seed.
type runConfig struct {
	spec    workload.Spec
	dataset workload.Dataset
	seed    int64
	seconds float64
	// setups and recoveries are how often the one-shot timings are
	// repeated; their medians are reported.
	setups     int
	recoveries int
	canary     bool
	trace      bool
	feoBin     string // the built cmd/feo
	self       string // this binary, re-executed as the seed child
	work       string // scratch directory of this run
	results    string // where result files and spans are written
}

// outcome is what one run measured.
type outcome struct {
	vals      map[string]float64
	attempted int
	failed    int
	errors    []string
	tailLevel float64 // the percentile op_tail_ms reports
	samples   int     // latency samples behind the percentiles
}

func (o *outcome) failf(format string, args ...any) {
	o.failed++
	if len(o.errors) < 10 {
		o.errors = append(o.errors, fmt.Sprintf(format, args...))
	}
}

// countQuery counts the question individuals: one per acknowledged
// /explain, because every op's question text is unique.
const countQuery = "SELECT (COUNT(?q) AS ?n) WHERE { ?q a feo:FoodQuestion }"

func countQuestions(c *http.Client, base string) (int, error) {
	resp, err := c.Get(base + "/sparql?query=" + url.QueryEscape(countQuery))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var doc struct {
		Results struct {
			Bindings []map[string]struct{ Value string }
		}
	}
	if err := json.Unmarshal(body, &doc); err != nil || len(doc.Results.Bindings) != 1 {
		return 0, fmt.Errorf("count query answered %d: %.200s", resp.StatusCode, body)
	}
	return strconv.Atoi(doc.Results.Bindings[0]["n"].Value)
}

// reading is everything sampled from outside the server at one quiescent
// instant.
type reading struct {
	metrics   harness.Metrics
	proc      harness.ProcSample
	selfCPUMS float64
	walGen    int
	walBytes  int64
	snapBytes int64
}

func read(c *http.Client, srv *harness.Server, dir string) (reading, error) {
	var (
		r   reading
		err error
	)
	if r.metrics, err = harness.Scrape(c, srv.Base); err != nil {
		return r, err
	}
	if r.proc, err = harness.ReadProc(srv.Pid); err != nil {
		return r, err
	}
	r.selfCPUMS = harness.SelfCPUMS()
	r.walGen, r.walBytes, r.snapBytes, err = dataDir(dir)
	return r, err
}

// dataDir reads a durability directory from outside: the WAL generation
// (from its file name, wal-<gen>.log) and the WAL and snapshot sizes.
func dataDir(dir string) (gen int, walBytes, snapBytes int64, err error) {
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		return 0, 0, 0, fmt.Errorf("no wal-*.log in %s (%v)", dir, err)
	}
	sort.Strings(wals)
	wal := wals[len(wals)-1]
	name := filepath.Base(wal)
	if gen, err = strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")); err != nil {
		return 0, 0, 0, fmt.Errorf("WAL name %q: %w", name, err)
	}
	wi, err := os.Stat(wal)
	if err != nil {
		return 0, 0, 0, err
	}
	si, err := os.Stat(filepath.Join(dir, "snapshot.bin"))
	if err != nil {
		return 0, 0, 0, err
	}
	return gen, wi.Size(), si.Size(), nil
}

// seedChild seeds dir in a child process through the public feo.Open
// API, so the harness process never holds the graph during set-up.
func seedChild(cfg runConfig, dir string) error {
	args := []string{"-seed-child", dir, "-workload", cfg.spec.Name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64)}
	if cfg.dataset == workload.KGSmoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(cfg.self, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// run drives one workload against a fresh `feo serve` and measures it.
// It returns the validator too: its first observations feed the oracle.
func run(cfg runConfig, list *workload.List) (*outcome, *harness.Validator, error) {
	out := &outcome{vals: map[string]float64{}}
	client := harness.NewClient()
	serverLog := filepath.Join(cfg.results, "serve.log") // kept after the run, for post-mortems

	if cfg.canary {
		out.vals["harness.canary_ms.before"] = harness.Canary()
	}

	// Set-up, repeated: seed a data directory in a child, boot the server
	// on it. The last repetition's server runs the workload.
	var (
		setups, seeds, boots []float64
		srv                  *harness.Server
		dir                  string
	)
	defer func() {
		if srv != nil {
			srv.Kill()
		}
	}()
	for r := 0; r < cfg.setups; r++ {
		if srv != nil {
			srv.Kill()
			srv = nil
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = os.MkdirTemp(cfg.work, "data-"); err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if err := seedChild(cfg, dir); err != nil {
			return nil, nil, fmt.Errorf("seed child: %w", err)
		}
		seeds = append(seeds, time.Since(t0).Seconds())
		if srv, err = harness.StartServer(cfg.feoBin, dir, serverLog, client); err != nil {
			return nil, nil, err
		}
		boots = append(boots, srv.BootS)
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.vals["setup_s"] = harness.Median(setups)
	out.vals["feo.seed_s"] = harness.Median(seeds)
	out.vals["cmd-feo.boot_s"] = harness.Median(boots)

	baseline, err := countQuestions(client, srv.Base)
	if err != nil {
		return nil, nil, err
	}

	// Warm-up (driven, validated, not timed), then the measured phase
	// between two quiescent readings.
	v := harness.NewValidator()
	budget := time.Duration(4 * cfg.seconds * float64(time.Second))
	warm := harness.Drive(client, srv.Base, list.Ops[:list.Warmup], cfg.spec.OpenLoop, v, budget)
	before, err := read(client, srv, dir)
	if err != nil {
		return nil, nil, err
	}
	meas := harness.Drive(client, srv.Base, list.Measured(), cfg.spec.OpenLoop, v, budget)
	after, err := read(client, srv, dir)
	if err != nil {
		return nil, nil, err
	}
	out.attempted = len(list.Ops)
	out.failed = warm.Failed + meas.Failed
	out.errors = append(warm.Errors, meas.Errors...)

	// Every acknowledged explanation must be in the graph now, and again
	// after each SIGKILL + restart: process-crash durability under -sync
	// commit (the OS cache survives a killed process, so this is not
	// power-failure durability).
	acked := baseline
	for i, s := range append(warm.Samples, meas.Samples...) {
		if s.OK && list.Ops[i].Kind == workload.Explain {
			acked++
		}
	}
	if n, err := countQuestions(client, srv.Base); err != nil || n != acked {
		out.failf("before the kill: %d questions in the graph, %d acknowledged (%v)", n, acked, err)
	}
	var recoveries []float64
	for r := 0; r < cfg.recoveries; r++ {
		t0 := time.Now()
		srv.Kill()
		if srv, err = harness.StartServer(cfg.feoBin, dir, serverLog, client); err != nil {
			return nil, nil, err
		}
		if n, err := countQuestions(client, srv.Base); err != nil || n != acked {
			out.failf("after recovery %d: %d questions in the graph, %d acknowledged (%v)", r, n, acked, err)
		}
		recoveries = append(recoveries, time.Since(t0).Seconds())
	}
	out.vals["recovery_s"] = harness.Median(recoveries)
	srv.Kill()
	os.RemoveAll(dir)

	if cfg.canary {
		out.vals["harness.canary_ms.after"] = harness.Canary()
	}
	measure(out, list, meas, before, after)
	return out, v, nil
}

// measure turns the measured phase and the two readings around it into
// the end-to-end metrics and the outside-read layer metrics.
func measure(out *outcome, list *workload.List, meas *harness.Phase, before, after reading) {
	ops := list.Measured()
	n := float64(len(ops))
	var (
		lat, ttfb            []float64
		sparqlSumMS, sparqlN float64
		explains             float64
	)
	for i, s := range meas.Samples {
		if !s.OK {
			continue
		}
		lat = append(lat, s.LatencyMS())
		switch ops[i].Kind {
		case workload.Sparql:
			ttfb = append(ttfb, s.TTFBMS())
			sparqlSumMS += s.LatencyMS()
			sparqlN++
		case workload.Explain:
			explains++
		}
	}
	for _, xs := range [][]float64{lat, ttfb} {
		sort.Float64s(xs)
	}
	out.samples = len(lat)
	out.tailLevel = harness.TailLevel(len(lat))
	out.vals["op_p50_ms"] = harness.Percentile(lat, 50)
	out.vals["op_tail_ms"] = harness.Percentile(lat, out.tailLevel)
	out.vals["sparql_ttfb_p50_ms"] = harness.Percentile(ttfb, 50)
	out.vals["ops_per_s"] = n / meas.Elapsed.Seconds()
	cpuUser := after.proc.UserMS - before.proc.UserMS
	cpuSys := after.proc.SysMS - before.proc.SysMS
	out.vals["server_cpu_ms_per_op"] = (cpuUser + cpuSys) / n
	out.vals["server_rss_mb"] = after.proc.HWMMB
	out.vals["datadir_mb"] = float64(after.walBytes+after.snapBytes) / 1e6

	// Layers, read from outside.
	lv := out.vals
	for _, ep := range []string{"sparql", "explain", "recommend"} {
		lv["cmd-feo.handler_us."+ep] = harness.HandlerMeanUS(before.metrics, after.metrics, "/"+ep)
	}
	if sparqlN > 0 {
		// Client mean − handler mean: net/http, loopback and the protocol.
		lv["cmd-feo.residual_us.sparql"] = sparqlSumMS/sparqlN*1e3 - lv["cmd-feo.handler_us.sparql"]
	}
	lv["cmd-feo.cpu_user_ms_per_op"] = cpuUser / n
	lv["cmd-feo.cpu_sys_ms_per_op"] = cpuSys / n
	lv["cmd-feo.bytes_out_per_op"] = (after.proc.WriteBytes - before.proc.WriteBytes) / n
	lv["cmd-feo.write_syscalls_per_op"] = (after.proc.WriteSyscalls - before.proc.WriteSyscalls) / n
	lv["cmd-feo.non2xx"] = harness.Non2xx(before.metrics, after.metrics)
	hits := after.metrics["feo_query_plan_cache_hits"] - before.metrics["feo_query_plan_cache_hits"]
	misses := after.metrics["feo_query_plan_cache_misses"] - before.metrics["feo_query_plan_cache_misses"]
	if hits+misses > 0 {
		lv["sparql.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	lv["store.triples"] = after.metrics["feo_graph_triples"]
	if explains > 0 {
		lv["reasoner.inferred_per_commit"] = (after.metrics["feo_reasoner_inferred_total"] -
			before.metrics["feo_reasoner_inferred_total"]) / explains
	}
	lv["durable.compactions"] = float64(after.walGen - before.walGen)
	lv["durable.snapshot_bytes"] = float64(after.snapBytes)
	if after.walGen > before.walGen {
		// The writer that triggered the compaction waited for the whole
		// snapshot: it is the slowest explanation of the phase by far.
		stall, at := 0.0, 0
		for i, s := range meas.Samples {
			if ops[i].Kind == workload.Explain && s.LatencyMS() > stall {
				stall, at = s.LatencyMS(), i
			}
		}
		lv["durable.compaction_stall_ms"] = stall
		lv["durable.compaction_at_share"] = float64(at) / n
	}
	if meas.Starts > 0 {
		lv["harness.late_share"] = float64(meas.Late) / float64(meas.Starts)
	}
	lv["harness.stale_reads"] = float64(meas.Stale)
	lv["harness.client_cpu_ms_per_op"] = (after.selfCPUMS - before.selfCPUMS) / n
}
