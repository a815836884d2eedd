package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/bench/workload"
)

// BENCHMARK.json (at the root of the repository) must name exactly the
// workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	specs := workload.Specs()
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []def) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if (def{m.Name, m.Unit, m.Better}) != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %v, the program %v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke builds cmd/feo and this program and runs them end to end on
// recipes=200: seed → serve → drive → kill → recover → verify, once
// untraced on a workload that writes and once traced on one with an
// oracle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries")
	}
	dir := t.TempDir()
	build := func(out, pkg string) string {
		bin := filepath.Join(dir, out)
		if msg, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, msg)
		}
		return bin
	}
	feo := build("feo", "repro/cmd/feo")
	bench := build("feobench", ".")
	for _, c := range []struct {
		workload, trace string
		want            []def
	}{
		{"write_churn", "0", endToEnd},
		{"kbqa_lookup", "1", perLayer},
	} {
		cmd := exec.Command(bench, "-feo", feo, "-work", dir, "-smoke",
			"--workload", c.workload, "--seed", "11", "--seconds", "1", "--trace", c.trace)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s\n%s", c.workload, err, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v\n%s", c.workload, err, lines[len(lines)-1])
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
			t.Errorf("%s: correct=%t failed=%d attempted=%d", c.workload, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(c.want) {
			t.Errorf("%s: %d metrics in the result, want %d", c.workload, len(res.Metrics), len(c.want))
		}
		for _, d := range c.want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in %q, want %q", c.workload, d.Name, m.Unit, d.Unit)
			}
		}
		if c.trace == "0" {
			for _, name := range []string{"setup_s", "ops_per_s", "op_p50_ms", "recovery_s", "datadir_mb", "server_rss_mb"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %g, want > 0", c.workload, name, res.Metrics[name].Value)
				}
			}
		} else if res.Metrics["harness.oracle_checked"].Value != 200 || res.Metrics["sparql.parse_us"].Value <= 0 {
			t.Errorf("%s: oracle checked %g requests, sparql.parse_us = %g", c.workload,
				res.Metrics["harness.oracle_checked"].Value, res.Metrics["sparql.parse_us"].Value)
		}
	}
	left, _ := filepath.Glob(filepath.Join(dir, "run-*"))
	if len(left) != 0 {
		t.Errorf("the run left %v behind", left)
	}
	if out, err := exec.Command("pgrep", "-f", feo).Output(); err == nil && len(out) > 0 {
		t.Errorf("a server is still running: %s", out)
	}
}
