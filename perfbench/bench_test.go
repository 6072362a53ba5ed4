package main

// Smoke test of the benchmark itself: every workload runs at a tiny scale,
// untraced and traced, and must report every metric BENCHMARK.json names
// with its unit; a deliberately dropped delivery must show as a failure.
//
//	cd perfbench && go test ./...

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func buildNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dynamoth-node")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dynamoth-node")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building node: %v\n%s", err, out)
	}
	return bin
}

func tinyParams(t *testing.T, nodeBin, workload string, trace bool) params {
	return params{
		workload: workload, seed: 7, seconds: 2, trace: trace,
		nodeBin: nodeBin, outDir: t.TempDir(), scale: 0.05, setups: 2,
	}
}

// notGated lists, per workload, the end-to-end figures every untraced run
// prints besides the gated ones.
var notGated = map[string]map[string]string{
	"pipeline": {"p50_us": "us", "p99_us": "us", "saturated_msgs_s": "msg/s",
		"node_cpu_us_per_msg": "us", "client_cpu_us_per_msg": "us",
		"node_cpu_us_per_msg_saturated": "us", "client_cpu_us_per_msg_saturated": "us"},
	"churn": {"p50_us": "us", "p99_us": "us", "saturated_msgs_s": "msg/s",
		"node_cpu_us_per_msg": "us", "client_cpu_us_per_msg": "us",
		"node_cpu_us_per_msg_saturated": "us", "client_cpu_us_per_msg_saturated": "us",
		"sub_p50_us": "us", "sub_p99_us": "us"},
	"rebalance": {"p50_us": "us", "p99_us": "us", "fail_ratio": "ratio", "converge_s": "s", "server_s": "s"},
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	c := loadContract(t)
	nodeBin := buildNode(t)
	gated := map[string]bool{}
	for _, w := range c.Workloads {
		gated[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			p := tinyParams(t, nodeBin, name, trace)
			rep, err := run(p)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res, _ := finish(p, rep)
			if res.Attempted == 0 {
				t.Errorf("%s trace=%v: no deliveries accounted", name, trace)
			}
			if gated[name] && !res.Correct {
				t.Errorf("%s trace=%v: incorrect at tiny scale: %v", name, trace, rep.problems)
			}
			want := c.PerLayer
			if !trace {
				for m, unit := range notGated[name] {
					if got, ok := rep.extra[m]; !ok || got.Unit != unit {
						t.Errorf("%s: printed metric %s missing or not in %s", name, m, unit)
					}
				}
				want = c.EndToEnd
				if !gated[name] {
					continue // rebalance reports the subset that applies to it
				}
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

func TestDroppedDeliveryIsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	p := tinyParams(t, buildNode(t), "pipeline", false)
	p.dropDeliveries = 1
	rep, err := run(p)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := finish(p, rep)
	if res.Correct || res.Failed == 0 || failRatio(res.Attempted, res.Failed) <= 0 {
		t.Fatalf("dropped delivery not reported: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, size := range []int{0, 64, 200} {
		p := appendPayload(nil, 12345, 12400, phaseSaturated, 987654, size)
		if size > 0 && len(p) != size {
			t.Fatalf("payload size %d, want %d", len(p), size)
		}
		intended, phase, seq, ok := parsePayload(p)
		if !ok || intended != 12345 || phase != phaseSaturated || seq != 987654 {
			t.Fatalf("parsePayload(%q) = %v %d %d %v", p, intended, phase, seq, ok)
		}
	}
	if _, _, _, ok := parsePayload([]byte("12 34 x")); ok {
		t.Fatal("untagged payload parsed")
	}
}
