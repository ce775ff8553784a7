package main

// perLayer lists the metrics of single layers, reported by every
// workload from its traced run; a layer the workload does not exercise
// reads 0. Units match BENCHMARK.json. "/slot" rows are normalised per
// committed slot: per tick on ingest-wal, per planned slot
// summed over all planners on batch-compare.
var perLayer = map[string]string{
	// Load generator: qualifies every open-loop number, and gives the
	// client-observed latency of the operations that are not the
	// workload's end-to-end op.
	"loadgen.late_max_ms":        "ms",
	"loadgen.offered":            "1/s",
	"loadgen.ingest_p50_ms":      "ms",
	"loadgen.ingest_p99_ms":      "ms",
	"loadgen.ingest_goodput_rps": "1/s",
	"loadgen.tick_p50_ms":        "ms",
	"loadgen.tick_p90_ms":        "ms",
	"loadgen.plan_p99_ms":        "ms",

	// serve, seen from the benchmark's wrapper around Server.Handler().
	"serve.ingest_handler_ms":      "ms",
	"serve.queue_ms":               "ms",
	"serve.ingest_in_tick_p99_ms":  "ms",
	"serve.ingest_out_tick_p99_ms": "ms",
	"serve.tick_handler_ms":        "ms",
	"serve.persist_ms":             "ms",
	"serve.wal_appends":            "count",
	"serve.wal_bytes_per_slot":     "B/slot",
	"serve.snapshot_kb_q1":         "KB",
	"serve.snapshot_kb_q3":         "KB",
	"serve.wal_replayed":           "count",
	"serve.recover_ms":             "ms",

	// online
	"online.window_solves":   "count/slot",
	"online.window_solve_ms": "ms/slot",
	"online.dual_iterations": "count/slot",
	"solver.degraded":        "count",

	// core
	"core.iterations":  "count/slot",
	"core.solve_ms":    "ms/slot",
	"core.p1_solve_ms": "ms/slot",
	"core.p2_solve_ms": "ms/slot",
	"core.recover_ms":  "ms/slot",

	// caching and mcflow (P1)
	"caching.p1_flow_solves":        "count/slot",
	"caching.p1_flow_solve_ms":      "ms/slot",
	"caching.p1_resolve_kept_ratio": "ratio",
	"caching.p1_sbs_skips":          "count/slot",

	// loadbalance and convex (P2)
	"loadbalance.p2_solve_ms":        "ms/slot",
	"loadbalance.p2_gradient_steps":  "count/slot",
	"loadbalance.p2_slot_skip_ratio": "ratio",
	"loadbalance.p2_parallelism":     "ratio",

	// sim: mean planning time of one sim.Run per planner.
	"sim.plan_ms.offline": "ms",
	"sim.plan_ms.rhc":     "ms",
	"sim.plan_ms.chc":     "ms",
	"sim.plan_ms.afhc":    "ms",
	"sim.plan_ms.lrfu":    "ms",

	// The traced run itself.
	"trace.unexplained_share": "ratio",
	"trace.overhead_pct":      "%",
}

// newLayerRows returns every per-layer metric at 0.
func newLayerRows() map[string]float64 {
	rows := make(map[string]float64, len(perLayer))
	for n := range perLayer {
		rows[n] = 0
	}
	return rows
}

// solverRows fills the online, core, caching and loadbalance rows from
// the instrument deltas accumulated over the calls that committed slots.
func solverRows(rows map[string]float64, d layerDelta, slots float64) {
	per := func(v float64) float64 { return ratio(v, slots) }
	c := func(name string) float64 { return float64(d.counters[name]) }

	rows["online.window_solves"] = per(c("online.window_solves"))
	rows["online.window_solve_ms"] = per(d.ms("online.window_solve"))
	rows["online.dual_iterations"] = per(c("online.dual_iterations"))
	rows["solver.degraded"] = c("solver.degraded")

	rows["core.iterations"] = per(c("core.iterations"))
	rows["core.solve_ms"] = per(d.ms("core.solve"))
	rows["core.p1_solve_ms"] = per(d.ms("core.p1_solve"))
	rows["core.p2_solve_ms"] = per(d.ms("core.p2_solve"))
	rows["core.recover_ms"] = per(d.ms("core.recover"))

	rows["caching.p1_flow_solves"] = per(c("caching.p1_flow_solves"))
	rows["caching.p1_flow_solve_ms"] = per(d.ms("caching.p1_flow_solve"))
	kept, fresh := c("caching.p1_resolve_kept"), c("caching.p1_resolve_fresh")
	rows["caching.p1_resolve_kept_ratio"] = ratio(kept, kept+fresh)
	rows["caching.p1_sbs_skips"] = per(c("caching.p1_sbs_skips"))

	rows["loadbalance.p2_solve_ms"] = per(d.ms("loadbalance.p2_solve"))
	rows["loadbalance.p2_gradient_steps"] = per(c("loadbalance.p2_gradient_steps"))
	skips, solves := c("loadbalance.p2_slot_skips"), c("loadbalance.p2_solves")
	rows["loadbalance.p2_slot_skip_ratio"] = ratio(skips, skips+solves)
	rows["loadbalance.p2_parallelism"] = ratio(d.ms("loadbalance.p2_solve"), d.ms("core.p2_solve"))
}
