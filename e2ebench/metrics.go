package main

import "regexp"

// metricDef is one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; metrics_test.go keeps the two in
// step.
//
// Every workload reports every metric of its kind: a run with --trace 0
// reports all end-to-end metrics and a run with --trace 1 all per-layer
// metrics. The end-to-end metrics are therefore defined per workload
// (see e2eMeaning); the per-layer metrics come from one layer suite
// that every traced run executes (see runLayers).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// PerLayer metrics come from the traced run.
	PerLayer bool
	// Moves names the end-to-end metric a per-layer metric should move,
	// as metric@workload.
	Moves string
}

const (
	wAttack = "attack-e2e"
	wFleet  = "fleet-sweep"
	wServe  = "serve-under-fire"
)

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func e2e(name, unit, better string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Bound: bound}
}

func layer(name, unit, better, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, PerLayer: true, Moves: moves}
}

// e2eMeaning says what each end-to-end metric measures in each
// workload. The report prints it beside the value.
var e2eMeaning = map[string]map[string]string{
	"setup_s": {
		wAttack: "median of 7 process warm-ups (victim-shaped model, one training step, one int8 batch)",
		wFleet:  "median over the run's fleets of building the fleet and starting campaignd",
		wServe:  "median of 25 builds of the quantized engine and serve.Server",
	},
	"peak_rss_mb": {
		wAttack: "process peak RSS over the attack",
		wFleet:  "median over timed fleets of the peak RSS during one fleet",
		wServe:  "process peak RSS over both windows and the storm",
	},
	"op_ms": {
		wAttack: "wall time of one full attack: TrainVictim + InjectBackdoor + HammerOnline + Evaluate",
		wFleet:  "median over timed fleets of fleet wall (submit until the last result streamed) per campaign",
		wServe:  "p50 request latency from the due time at the low rate (the high rate's is per-layer: it spreads more between runs)",
	},
	"outcome_pct": {
		wAttack: "online attack success rate of the deployed int8 model",
		wFleet:  "median over timed fleets of the mean r_match",
		wServe:  "share of sent requests served within the latency limit (a shed request is a miss)",
	},
}

var metricDefs = []metricDef{
	// End to end, from the untraced run.
	e2e("setup_s", "s", "lower", 0.25),
	e2e("peak_rss_mb", "MB", "lower", 0.25),
	e2e("op_ms", "ms", "lower", 0.25),
	e2e("outcome_pct", "%", "higher", 0.25),

	// Tracing overhead of the workload's own operation: traced minus
	// untraced, as a share of untraced.
	layer("trace.overhead_pct", "%", "lower", "none (cost of the traced run)"),

	// The attack pipeline, run from the layers' public functions.
	layer("attack.span_sum_s", "s", "lower", "op_ms@attack-e2e"),
	layer("attack.span_gap_pct", "%", "lower", "none (attribution check)"),
	layer("pretrain.train_s", "s", "lower", "op_ms@attack-e2e"),
	layer("core.offline_s", "s", "lower", "op_ms@attack-e2e"),
	layer("core.offline.iters", "count", "lower", "op_ms@attack-e2e"),
	layer("quant.quantize_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("core.online_s", "s", "lower", "op_ms@attack-e2e"),
	layer("core.online.profile_s", "s", "lower", "op_ms@attack-e2e,op_ms@fleet-sweep"),
	layer("core.online.plan_s", "s", "lower", "op_ms@attack-e2e,op_ms@fleet-sweep"),
	layer("core.online.massage_s", "s", "lower", "op_ms@attack-e2e,op_ms@fleet-sweep"),
	layer("core.online.hammer_s", "s", "lower", "op_ms@attack-e2e,op_ms@fleet-sweep"),
	layer("core.online.verify_s", "s", "lower", "op_ms@attack-e2e,op_ms@fleet-sweep"),
	layer("metrics.eval_s", "s", "lower", "op_ms@attack-e2e"),
	layer("metrics.eval_images_per_s", "1/s", "higher", "op_ms@attack-e2e"),

	// Probes at the victim's shapes.
	layer("nn.step_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("nn.conv.fwd_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("nn.conv.bwd_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("nn.bn.fwd_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("nn.bn.bwd_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("nn.relu.fwd_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("nn.relu.bwd_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("nn.linear.fwd_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("nn.linear.bwd_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("tensor.im2col_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("tensor.col2im_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("tensor.gemm_ms", "ms", "lower", "op_ms@attack-e2e"),
	layer("quant.forward_ms_b32", "ms", "lower", "op_ms@attack-e2e,op_ms@serve-under-fire"),
	layer("quant.forward_ms_b1", "ms", "lower", "op_ms@serve-under-fire"),

	// The fleet: engine-only campaign.Run, template sweeps and one
	// traced campaignd fleet.
	layer("campaign.cache_hit_ratio", "ratio", "higher", "op_ms@fleet-sweep"),
	layer("campaign.templates", "count", "lower", "op_ms@fleet-sweep"),
	layer("campaign.profile_s", "s", "lower", "op_ms@fleet-sweep"),
	layer("campaign.plan_s", "s", "lower", "op_ms@fleet-sweep"),
	layer("campaign.massage_s", "s", "lower", "op_ms@fleet-sweep"),
	layer("campaign.hammer_s", "s", "lower", "op_ms@fleet-sweep"),
	layer("campaign.verify_s", "s", "lower", "op_ms@fleet-sweep"),
	layer("campaign.busy_ratio", "ratio", "higher", "op_ms@fleet-sweep"),
	layer("campaign.arena_peak_mb", "MB", "lower", "peak_rss_mb@fleet-sweep"),
	layer("dram.rows_hammered", "count", "lower", "op_ms@fleet-sweep"),
	layer("campaignd.submit_ms", "ms", "lower", "op_ms@fleet-sweep"),
	layer("campaignd.overhead_s", "s", "lower", "op_ms@fleet-sweep"),

	// Serving under the flip storm, in fixed-length windows. The
	// per-rate figures and the tails are reported here, without a bound:
	// on a 2-vCPU machine the tails' run-to-run spread (0.20 to 0.34 of
	// the median) exceeds the largest regression bound allowed.
	layer("serve_p50_ms_low", "ms", "lower", "op_ms@serve-under-fire"),
	layer("serve_p50_ms_high", "ms", "lower", "op_ms@serve-under-fire"),
	layer("serve_p99_ms_low", "ms", "lower", "none (tail, too unsteady to gate)"),
	layer("serve_p99_ms_high", "ms", "lower", "none (tail, too unsteady to gate)"),
	layer("swap_p99_ms", "ms", "lower", "none (tail, too unsteady to gate)"),
	layer("serve.mean_batch", "count", "higher", "op_ms@serve-under-fire"),
	layer("serve.batches", "count", "lower", "op_ms@serve-under-fire"),
	layer("serve.shed", "count", "lower", "outcome_pct@serve-under-fire"),
	layer("serve.gen_late_ms_p99", "ms", "lower", "none (validates the open loop)"),
	layer("quant.swap_ms_p50", "ms", "lower", "op_ms@serve-under-fire"),
	layer("quant.swap_ms_p99", "ms", "lower", "op_ms@serve-under-fire"),
	layer("quant.live_epochs_max", "count", "lower", "peak_rss_mb@serve-under-fire"),
}
