package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTrace(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.trace")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodTrace = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"campaignd"}},
{"name":"campaign","ph":"X","ts":0,"pid":1,"tid":0,"dur":1000,"args":{"detail":"trace cafe0123"}},
{"name":"process_name","ph":"M","ts":0,"pid":100,"tid":0,"args":{"name":"shard 00 · w1"}},
{"name":"shard","ph":"X","ts":100,"pid":100,"tid":0,"dur":500},
{"name":"campaign/batch","ph":"X","ts":150,"pid":100,"tid":1,"dur":100},
{"name":"campaign/converged","ph":"i","ts":300,"pid":100,"tid":1,"s":"g"},
{"name":"process_name","ph":"M","ts":0,"pid":101,"tid":0,"args":{"name":"shard 01 · w2"}},
{"name":"shard","ph":"X","ts":600,"pid":101,"tid":0,"dur":300}
]}`

func TestCheckTraceAcceptsNestedTimeline(t *testing.T) {
	chk, err := CheckTrace(writeTrace(t, goodTrace))
	if err != nil {
		t.Fatal(err)
	}
	if chk.TraceID != "cafe0123" {
		t.Fatalf("trace id = %q, want cafe0123", chk.TraceID)
	}
	if chk.Shards != 2 || chk.SegmentEvents != 2 || chk.Events != 8 {
		t.Fatalf("summary = %+v", chk)
	}
	if len(chk.Workers) != 2 || chk.Workers[0] != "w1" || chk.Workers[1] != "w2" {
		t.Fatalf("workers = %v", chk.Workers)
	}
}

func TestCheckTraceRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"not-json", `{"traceEvents":[`, "not valid trace JSON"},
		{"empty", `{"traceEvents":[]}`, "no trace events"},
		{"no-root", `{"traceEvents":[{"name":"shard","ph":"X","ts":0,"pid":100,"tid":0,"dur":10}]}`,
			"no campaign root"},
		{"shard-escapes-root", `{"traceEvents":[
			{"name":"campaign","ph":"X","ts":100,"pid":1,"tid":0,"dur":100},
			{"name":"shard","ph":"X","ts":0,"pid":100,"tid":0,"dur":50}]}`,
			"escapes the campaign root"},
		{"event-escapes-shard", `{"traceEvents":[
			{"name":"campaign","ph":"X","ts":0,"pid":1,"tid":0,"dur":1000},
			{"name":"shard","ph":"X","ts":100,"pid":100,"tid":0,"dur":100},
			{"name":"campaign/batch","ph":"X","ts":150,"pid":100,"tid":1,"dur":500}]}`,
			"escapes its shard span"},
		{"orphan-event", `{"traceEvents":[
			{"name":"campaign","ph":"X","ts":0,"pid":1,"tid":0,"dur":1000},
			{"name":"shard","ph":"X","ts":100,"pid":100,"tid":0,"dur":100},
			{"name":"campaign/batch","ph":"X","ts":150,"pid":102,"tid":1,"dur":10}]}`,
			"no shard span"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := CheckTrace(writeTrace(t, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestStatsLatencyAndWorkerRendering(t *testing.T) {
	statsPath := filepath.Join(t.TempDir(), "run.stats")
	stats := `{
	  "uptime_seconds": 3.0,
	  "counters": {
	    "fleet_leases_granted_total": 4,
	    "fleet_worker_points_total{worker=w1}": 300,
	    "fleet_worker_points_total{worker=w2}": 100
	  },
	  "histograms": {
	    "campaign_experiment_seconds": {"count": 400, "sum": 2.0, "p50": 0.004, "p95": 0.009, "p99": 0.02},
	    "campaign_batch_seconds": {"count": 7, "sum": 1.4, "p50": 0.2, "p95": 0.3, "p99": 0.31}
	  }
	}`
	if err := os.WriteFile(statsPath, []byte(stats), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(buildJournal(t, testHeader, basePoints()), statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := BuildDocument(c, 0).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{
		"experiment p50=4.00ms p95=9.00ms p99=20.00ms (400 samples)",
		"batch      p50=200.00ms p95=300.00ms p99=310.00ms (7 samples)",
		"2 contributed points",
		"w1", "300 points (75.0%)",
		"w2", "100 points (25.0%)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats rendering missing %q:\n%s", want, out)
		}
	}

	byWorker := c.Stats.LabeledCounters("fleet_worker_points_total", "worker")
	if len(byWorker) != 2 || byWorker["w1"] != 300 || byWorker["w2"] != 100 {
		t.Fatalf("LabeledCounters = %v", byWorker)
	}

	// A pre-wide-engine dump carries no simulation telemetry: the line must
	// be absent entirely, not rendered with zeros.
	if strings.Contains(out, "simulation:") {
		t.Fatalf("simulation line rendered without wide-engine stats:\n%s", out)
	}
}

// TestStatsWideEngineRendering: the lane-width gauge renders as the
// simulation line. Counters of the retired cone-delta evaluator, which
// dumps from older binaries still carry, render nothing, and without the
// gauge the line is absent.
func TestStatsWideEngineRendering(t *testing.T) {
	statsPath := filepath.Join(t.TempDir(), "wide.stats")
	stats := `{
	  "uptime_seconds": 2.0,
	  "counters": {
	    "sim_delta_gates_skipped_total": 123456,
	    "sim_frontier_fallback_total": 7
	  },
	  "gauges": {
	    "campaign_lanes": 256
	  }
	}`
	if err := os.WriteFile(statsPath, []byte(stats), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(buildJournal(t, testHeader, basePoints()), statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := BuildDocument(c, 0).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	if want := "simulation: 256 lanes\n"; !strings.Contains(out, want) {
		t.Fatalf("wide-engine stats rendering missing %q:\n%s", want, out)
	}
	if strings.Contains(out, "cone-delta") || strings.Contains(out, "fallbacks") {
		t.Fatalf("retired cone-delta counters rendered:\n%s", out)
	}

	// Counters without the gauge: no simulation line at all.
	noLanes := filepath.Join(t.TempDir(), "nolanes.stats")
	if err := os.WriteFile(noLanes, []byte(`{
	  "uptime_seconds": 1.0,
	  "counters": {"sim_delta_gates_skipped_total": 9}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Load(buildJournal(t, testHeader, basePoints()), noLanes)
	if err != nil {
		t.Fatal(err)
	}
	text.Reset()
	if err := BuildDocument(c2, 0).WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if out := text.String(); strings.Contains(out, "simulation:") {
		t.Fatalf("gauge-less stats rendering wrong:\n%s", out)
	}
}
