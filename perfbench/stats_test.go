package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []int64
	for i := int64(100); i >= 1; i-- {
		xs = append(xs, i)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.01, 1}, {0.5, 50}, {0.99, 99}, {0.991, 100}, {1, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %d, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs = []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3}, {0.75, 7}, {1, 9}, {0.125, 2}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

const exposition = `# HELP dc_stage_fire_ns Transition firing duration by pipeline stage, ns.
# TYPE dc_stage_fire_ns histogram
dc_stage_fire_ns_bucket{stage="fire",le="1"} 0
dc_stage_fire_ns_bucket{stage="fire",le="+Inf"} 4
dc_stage_fire_ns_sum{stage="fire"} 1000
dc_stage_fire_ns_count{stage="fire"} 4
dc_stage_fire_ns_sum{stage="merge"} 50
dc_stage_fire_ns_count{stage="merge"} 1
dc_stream_backlog{stream="a"} 3
dc_stream_backlog{stream="b"} 5
dc_query_watermark_lag_ns{query="q\"1\\x"} -1
dc_query_watermark_lag_ns{query="q2"} 2.5e+06
dc_ingest_batches_total 12
`

func TestParseMetrics(t *testing.T) {
	sc, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc) != 11 {
		t.Fatalf("parsed %d series, want 11", len(sc))
	}
	if got := sc.sum("dc_stream_backlog", nil); got != 8 {
		t.Errorf("backlog sum = %v, want 8", got)
	}
	if got := sc.sum("dc_stream_backlog", map[string]string{"stream": "b"}); got != 5 {
		t.Errorf("backlog{stream=b} = %v, want 5", got)
	}
	if got := sc.max("dc_query_watermark_lag_ns", nil); got != 2.5e6 {
		t.Errorf("watermark lag max = %v", got)
	}
	if got := sc.sum("dc_query_watermark_lag_ns", map[string]string{"query": `q"1\x`}); got != -1 {
		t.Errorf("escaped label value not decoded: %v", got)
	}
	if got := sc.sum("dc_ingest_batches_total", nil); got != 12 {
		t.Errorf("unlabeled counter = %v", got)
	}
}

func TestParseMetricsRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"no_value",
		`x{a="1"`,
		`x{a=1} 2`,
		"x notanumber",
	} {
		if _, err := parseMetrics(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%q parsed without error", line)
		}
	}
}

func TestDeltaHistReadsSumAndCountOnly(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(strings.NewReplacer(
		`dc_stage_fire_ns_sum{stage="fire"} 1000`, `dc_stage_fire_ns_sum{stage="fire"} 4000`,
		`dc_stage_fire_ns_count{stage="fire"} 4`, `dc_stage_fire_ns_count{stage="fire"} 10`,
	).Replace(exposition)))
	if err != nil {
		t.Fatal(err)
	}
	h := deltaHist(before, after, "dc_stage_fire_ns", map[string]string{"stage": "fire"})
	if h.sum != 3000 || h.count != 6 || h.mean() != 500 {
		t.Errorf("delta = %+v, mean %v; want sum 3000, count 6, mean 500", h, h.mean())
	}
	if m := (histDelta{}).mean(); m != 0 {
		t.Errorf("empty mean = %v", m)
	}
}

func TestFingerprintSumIsOrderFree(t *testing.T) {
	a := fingerprint(1) + fingerprint(2) + fingerprint(3)
	b := fingerprint(3) + fingerprint(1) + fingerprint(2)
	if a != b {
		t.Error("fingerprint sum depends on order")
	}
	if a == fingerprint(1)+fingerprint(2)+fingerprint(2) {
		t.Error("a duplicate replacing a row went unnoticed")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// in step with the metrics the command reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command reports %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, layerMetrics)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, the command has %v", names, workloadNames())
	}
}
