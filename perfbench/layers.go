package main

import (
	"fmt"
	"time"
)

// perLayerUnits lists every per-layer metric, named after its module, with
// its unit. Every traced run reports all of them; a layer a workload does
// not exercise reads 0.
var perLayerUnits = []struct{ name, unit string }{
	{"sim.eval_ns", "ns"},
	{"sim.eval_ns_per_op_group", "ns"},
	{"sim.commit_ns", "ns"},
	{"sim.diverge_ns", "ns"},
	{"sim.step_ns", "ns"},
	{"sim.golden_lane_frac", "ratio"},
	{"sim.delta_skipped", "count"},
	{"sim.delta_fallbacks", "count"},
	{"cpu.env_ns", "ns"},
	{"cpu.env_share", "ratio"},
	{"cpu.golden_bus_frac", "ratio"},
	{"hafi.golden_s", "s"},
	{"hafi.faultlist_s", "s"},
	{"hafi.exec_s", "s"},
	{"hafi.executed", "count"},
	{"hafi.pruned", "count"},
	{"hafi.converged", "count"},
	{"hafi.cycles_saved", "count"},
	{"hafi.batches", "count"},
	{"hafi.lane_occupancy", "ratio"},
	{"hafi.batch_busy_s", "s"},
	{"hafi.straggler_s", "s"},
	{"hafi.worker_util", "ratio"},
	{"hafi.allocs_per_point", "allocs/point"},
	{"hafi.alloc_bytes_per_point", "B/point"},
	{"journal.appends", "count"},
	{"journal.bytes", "B"},
	{"journal.append_s", "s"},
	{"journal.close_s", "s"},
	{"core.search_s", "s"},
	{"core.mates", "count"},
	{"core.paths", "count"},
	{"core.candidates", "count"},
	{"core.unmaskable", "count"},
	{"prune.evaluate_s", "s"},
	{"prune.select_s", "s"},
	{"prune.points", "count"},
	{"prune.masked_points", "count"},
	{"exact.verify_s", "s"},
	{"exact.pairs_checked", "count"},
	{"exact.pairs_proved", "count"},
	{"exact.unproven_wires", "count"},
	{"exact.bdd_nodes", "count"},
	{"obs.trace_overhead_frac", "ratio"},
}

// perLayer turns measured values into the per-layer metric set.
func perLayer(values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(perLayerUnits))
	for _, u := range perLayerUnits {
		out[u.name] = metric{values[u.name], u.unit}
		delete(values, u.name)
	}
	for name := range values {
		return nil, fmt.Errorf("per-layer value %q has no declared unit", name)
	}
	return out, nil
}

// traceOverhead compares traced with untraced throughput: the share of
// points/s the tracing costs.
func traceOverhead(untraced, traced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return 1 - median(traced)/u
}

// layerMetrics derives the campaign workloads' per-layer metrics from the
// traced passes, the registry counters and a replay, and prints the
// layer-share report.
func (cs *campaignSpec) layerMetrics(m *measured, opts options) (map[string]metric, error) {
	tr := m.tr
	v := map[string]float64{}
	var tracedPPS, plainPPS []float64
	var golden, faultlist, exec, search, batch, strag, appendS, shut []float64
	var timed time.Duration
	var hafiSelf, coreSelf, journalSelf time.Duration
	var allocs, allocBytes []float64
	var last *pass
	n := 0
	for i, p := range m.reps {
		pps := float64(p.npoints) / p.wall.Seconds()
		if !m.traced[i] {
			plainPPS = append(plainPPS, pps)
			allocs = append(allocs, float64(p.mallocs)/float64(p.npoints))
			allocBytes = append(allocBytes, float64(p.allocBytes)/float64(p.npoints))
			continue
		}
		n++
		last = p
		tracedPPS = append(tracedPPS, pps)
		b := tr.spanTotal("campaign/batch", i)
		s := tr.spanTotal("campaign/stragglers", i)
		ja := tr.spanUnion("journal/append", i)
		golden = append(golden, p.golden.Seconds())
		faultlist = append(faultlist, p.faultlist.Seconds())
		exec = append(exec, p.exec.Seconds())
		search = append(search, p.search.Seconds())
		batch = append(batch, b.Seconds())
		strag = append(strag, s.Seconds())
		appendS = append(appendS, ja.Seconds())
		shut = append(shut, p.shut.Seconds())
		timed += p.wall
		hafiSelf += p.golden + p.faultlist + p.exec - ja
		coreSelf += p.search
		journalSelf += ja + p.open + p.shut
	}
	if n == 0 {
		return nil, fmt.Errorf("no traced pass ran")
	}
	per := func(name string) float64 { return float64(tr.counter(name)) / float64(n) }
	res := last.res
	lanes := tr.reg.Histogram("campaign_batch_lanes", nil)

	v["hafi.golden_s"] = median(golden)
	v["hafi.faultlist_s"] = median(faultlist)
	v["hafi.exec_s"] = median(exec)
	v["hafi.executed"] = float64(res.Executed)
	v["hafi.pruned"] = float64(res.Skipped)
	v["hafi.converged"] = float64(res.Converged)
	v["hafi.cycles_saved"] = float64(res.CyclesSaved)
	v["hafi.batches"] = per("campaign_batches_total")
	if c := lanes.Count(); c > 0 {
		v["hafi.lane_occupancy"] = lanes.Sum() / float64(c) / Lanes
	}
	v["hafi.batch_busy_s"] = median(batch)
	v["hafi.straggler_s"] = median(strag)
	v["hafi.worker_util"] = (median(batch) + median(strag)) / (Workers * median(exec))
	v["hafi.allocs_per_point"] = median(allocs)
	v["hafi.alloc_bytes_per_point"] = median(allocBytes)
	v["sim.delta_skipped"] = per("sim_delta_gates_skipped_total")
	v["sim.delta_fallbacks"] = per("sim_frontier_fallback_total")
	v["journal.appends"] = per("journal_appends_total")
	v["journal.bytes"] = per("journal_bytes_total")
	v["journal.append_s"] = median(appendS)
	v["journal.close_s"] = median(shut)
	v["core.search_s"] = median(search)
	v["core.mates"] = float64(last.mates)
	v["core.paths"] = per("search_paths_total")
	v["core.candidates"] = per("search_candidates_total")
	v["core.unmaskable"] = per("search_unmaskable_total")
	v["obs.trace_overhead_frac"] = traceOverhead(plainPPS, tracedPPS)

	rs, err := replay(m.t, m.ref.g, m.ref.points)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for k, x := range rs.metrics() {
		v[k] = x
	}
	printLayerShares(opts.stdout, cs.name, timed, []layerShare{
		{"hafi", hafiSelf}, {"core", coreSelf}, {"journal", journalSelf},
	})
	fmt.Fprintf(opts.stdout, "# replayed step (%d cycles): eval %.1f%%, cpu env %.1f%%, commit %.1f%% of the parts; live lanes with golden FF state %.1f%%, with golden memory buses %.1f%%\n",
		rs.cycles, share(rs.eval, rs.eval+rs.env+rs.commit), share(rs.env, rs.eval+rs.env+rs.commit),
		share(rs.commit, rs.eval+rs.env+rs.commit), 100*v["sim.golden_lane_frac"], 100*v["cpu.golden_bus_frac"])
	return perLayer(v)
}
