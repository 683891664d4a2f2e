package main

import "strings"

// The five workloads, in the order a full invocation runs them. The
// reasons are the ones BENCHMARK.json and the README carry.
var workloads = []workloadSpec{
	{"bt_batch", "Fig. 14 path: six BT stages through core.TiMR on an 8-machine cluster, then the custom reducers on the same input; mapreduce shuffle, core run-merge and temporal operators all carry load", runBTBatch},
	{"bt_spill", "same job under a memory budget: the shuffle is written and re-read as spill segments, so a shuffle gain that costs the out-of-core path shows", runBTSpill},
	{"bt_single", "single-threaded baseline: all seven stages on one embedded engine, bypassing mapreduce and core; an operator gain must move it, an M-R gain must not", runBTSingle},
	{"serve_open", "streaming use of core+temporal with no mapreduce: open-loop scoring at a fixed rate (a CTI and a checkpoint per wave), then an unpaced saturation run", runServeOpen},
	{"refresh_week", "the timr refresh path: seven daily delta ingests where bt summaries and ml retraining dominate and mapreduce is absent", runRefreshWeek},
}

type workloadSpec struct {
	name string
	why  string
	run  func(c *child) error
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// metricSpec names one metric. on lists the workloads that exercise it
// ("" = all); the others emit 0 for a per-layer metric, because the
// layer did no work there.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: tolerated worsening, share of the parent's median
	on     string  // space-separated workload names; "" = every workload
	what   string
}

func (m metricSpec) appliesTo(workload string) bool {
	if m.on == "" {
		return true
	}
	for _, w := range strings.Fields(m.on) {
		if w == workload {
			return true
		}
	}
	return false
}

const (
	lower  = "lower"
	higher = "higher"

	batchWorkloads = "bt_batch bt_spill"
)

// endToEnd are the metrics a user of the system sees. The contract
// requires every workload to report every one of them, so each is
// defined for all five workloads (README "End-to-end metrics").
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25,
		what: "median of three set-ups: generate + load, plus train and pre-generate requests on serve_open"},
	{name: "events_per_s", unit: "1/s", better: higher, bound: 0.25,
		what: "input items / median wall from input to complete result (serve_open: requests / serve.Run duration, unpaced)"},
	{name: "result_ms", unit: "ms", better: lower, bound: 0.25,
		what: "median wait for one result: job wall (bt_*), score lag (serve_open), one day's ingest (refresh_week)"},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.25,
		what: "VmHWM of the workload's process at the end of the timed phase"},
}

// perLayer are single-layer metrics, <package>.<name>. They carry no
// bound; the README's interaction table says which end-to-end metric
// each should move.
var perLayer = []metricSpec{
	{name: "workload.generate_s", unit: "s", better: lower, on: "bt_batch bt_spill bt_single refresh_week", what: "workload.Generate wall (serve_open generates inside serve.Prepare)"},
	{name: "workload.loadgen_us_per_req", unit: "us", better: lower, on: "serve_open", what: "LoadGen.Next wall per pre-generated request"},

	{name: "mapreduce.map_cpu_s", unit: "s", better: lower, on: batchWorkloads, what: "summed map-task time over the six TiMR jobs"},
	{name: "mapreduce.reduce_cpu_s", unit: "s", better: lower, on: batchWorkloads, what: "summed reduce-task time"},
	{name: "mapreduce.stage_wall_s", unit: "s", better: lower, on: batchWorkloads, what: "summed StageStat.WallTime"},
	{name: "mapreduce.pool_util", unit: "ratio", better: higher, on: batchWorkloads, what: "(map+reduce cpu) / (pool workers x stage wall)"},
	{name: "mapreduce.shuffle_rows", unit: "count", better: lower, on: batchWorkloads, what: "rows repartitioned"},
	{name: "mapreduce.shuffle_bytes", unit: "B", better: lower, on: batchWorkloads, what: "estimated bytes repartitioned"},
	{name: "mapreduce.row_skew_max", unit: "ratio", better: lower, on: batchWorkloads, what: "largest StageStat.RowSkew of the job"},
	{name: "mapreduce.spill_bytes", unit: "B", better: lower, on: batchWorkloads, what: "bytes written to spill files"},
	{name: "mapreduce.spill_segments", unit: "count", better: lower, on: batchWorkloads, what: "segments spilled"},
	{name: "mapreduce.spill_read_bytes", unit: "B", better: lower, on: batchWorkloads, what: "spilled bytes read back"},
	{name: "mapreduce.spill_read_s", unit: "s", better: lower, on: batchWorkloads, what: "time reading spilled segments"},
	{name: "mapreduce.shuffle_only_rows_per_s", unit: "1/s", better: higher, on: batchWorkloads, what: "identity-reducer stage over the raw events by UserId, default pool"},
	{name: "mapreduce.shuffle_only_serial_rows_per_s", unit: "1/s", better: higher, on: batchWorkloads, what: "same stage with MapWorkers: 1"},

	{name: "core.stage_s.botelim", unit: "s", better: lower, on: batchWorkloads, what: "core.TiMR.Run wall of the stage"},
	{name: "core.stage_s.label", unit: "s", better: lower, on: batchWorkloads, what: "core.TiMR.Run wall of the stage"},
	{name: "core.stage_s.traindata", unit: "s", better: lower, on: batchWorkloads, what: "core.TiMR.Run wall of the stage"},
	{name: "core.stage_s.featureselect", unit: "s", better: lower, on: batchWorkloads, what: "core.TiMR.Run wall of the stage"},
	{name: "core.stage_s.reduce", unit: "s", better: lower, on: batchWorkloads, what: "core.TiMR.Run wall of the stage"},
	{name: "core.stage_s.model", unit: "s", better: lower, on: batchWorkloads, what: "core.TiMR.Run wall of the stage"},
	{name: "core.plan_overhead_s", unit: "s", better: lower, on: batchWorkloads, what: "sum of TiMR.Run walls - sum of StageStat.WallTime: fragmenting and stage building"},
	{name: "core.result_read_s", unit: "s", better: lower, on: batchWorkloads, what: "reading the six outputs back from the cluster FS"},
	{name: "core.columnar_feeds", unit: "count", better: higher, on: batchWorkloads, what: "obs counter, counts-only pass"},
	{name: "core.merge_fallback_sorts", unit: "count", better: lower, on: batchWorkloads, what: "obs counter, counts-only pass"},
	{name: "baseline.custom_wall_s", unit: "s", better: lower, on: "bt_batch", what: "baseline.CustomBTJob wall on the same input"},
	{name: "baseline.custom_ratio", unit: "ratio", better: lower, on: "bt_batch", what: "TiMR wall / custom-reducer wall, same process, same input (paper <1.1)"},

	{name: "temporal.stage_s.botelim", unit: "s", better: lower, on: "bt_single", what: "temporal.RunPlan wall of the stage"},
	{name: "temporal.stage_s.label", unit: "s", better: lower, on: "bt_single", what: "temporal.RunPlan wall of the stage"},
	{name: "temporal.stage_s.traindata", unit: "s", better: lower, on: "bt_single", what: "temporal.RunPlan wall of the stage"},
	{name: "temporal.stage_s.featureselect", unit: "s", better: lower, on: "bt_single", what: "temporal.RunPlan wall of the stage"},
	{name: "temporal.stage_s.reduce", unit: "s", better: lower, on: "bt_single", what: "temporal.RunPlan wall of the stage"},
	{name: "temporal.stage_s.model", unit: "s", better: lower, on: "bt_single", what: "temporal.RunPlan wall of the stage"},
	{name: "temporal.stage_s.score", unit: "s", better: lower, on: "bt_single", what: "temporal.RunPlan wall of the stage"},
	{name: "temporal.stage_out.botelim", unit: "count", better: higher, on: "bt_single", what: "coalesced output events"},
	{name: "temporal.stage_out.label", unit: "count", better: higher, on: "bt_single", what: "coalesced output events"},
	{name: "temporal.stage_out.traindata", unit: "count", better: higher, on: "bt_single", what: "coalesced output events"},
	{name: "temporal.stage_out.featureselect", unit: "count", better: higher, on: "bt_single", what: "coalesced output events"},
	{name: "temporal.stage_out.reduce", unit: "count", better: higher, on: "bt_single", what: "coalesced output events"},
	{name: "temporal.stage_out.model", unit: "count", better: higher, on: "bt_single", what: "coalesced output events"},
	{name: "temporal.stage_out.score", unit: "count", better: higher, on: "bt_single", what: "coalesced output events"},

	{name: "core.feed_us_per_req", unit: "us", better: lower, on: "serve_open", what: "Feeder.FeedBatch wall per impression, open-loop phase"},
	{name: "core.advance_ms_p50", unit: "ms", better: lower, on: "serve_open", what: "StreamingJob.Advance wall per wave"},
	{name: "core.advance_ms_p90", unit: "ms", better: lower, on: "serve_open", what: "StreamingJob.Advance wall per wave"},
	{name: "core.advance_ms_max", unit: "ms", better: lower, on: "serve_open", what: "slowest Advance"},
	{name: "core.flush_ms", unit: "ms", better: lower, on: "serve_open", what: "StreamingJob.Flush wall"},
	{name: "core.waves", unit: "count", better: higher, on: "serve_open", what: "punctuation waves in the open-loop phase"},
	{name: "core.rows_fed", unit: "count", better: higher, on: "serve_open", what: "feature rows fed in the open-loop phase"},
	{name: "core.advance_growth", unit: "ratio", better: lower, on: "serve_open", what: "mean Advance of the last eighth of waves / first eighth (1 = steady state)"},
	{name: "temporal.checkpoint_bytes_per_wave", unit: "B", better: lower, on: "serve_open", what: "obs checkpoint_bytes / waves, counts-only pass"},
	{name: "serve.prepare_s", unit: "s", better: lower, on: "serve_open", what: "serve.Prepare wall (generate + train)"},
	{name: "serve.sched_lag_max_ms", unit: "ms", better: lower, on: "serve_open", what: "how late the open-loop generator ran, worst request"},
	{name: "serve.sched_lag_p99_ms", unit: "ms", better: lower, on: "serve_open", what: "how late the open-loop generator ran"},
	{name: "serve.arrival_lag_p50_ms", unit: "ms", better: lower, on: "serve_open", what: "impression due -> score delivered, wave wait included"},
	{name: "serve.score_lag_p90_ms", unit: "ms", better: lower, on: "serve_open", what: "trigger due -> score delivered, p90"},
	{name: "serve.score_lag_p99_ms", unit: "ms", better: lower, on: "serve_open", what: "trigger due -> score delivered, p99"},
	{name: "serve.over_limit_share", unit: "ratio", better: lower, on: "serve_open", what: "impressions over 100 ms of score lag, failed ones included"},
	{name: "serve.loop_overhead_s", unit: "s", better: lower, on: "serve_open", what: "serve.Run unpaced wall - bench driver unpaced wall"},
	{name: "serve.durable_capacity_rps", unit: "1/s", better: higher, on: "serve_open", what: "serve.Run unpaced with DurDir"},
	{name: "dur.commit_ms_p50", unit: "ms", better: lower, on: "serve_open", what: "per-wave Advance with a durable store - without, paired by wave"},
	{name: "dur.bytes_per_wave", unit: "B", better: lower, on: "serve_open", what: "obs dur_bytes / generations"},

	{name: "bt.ingest_day0_s", unit: "s", better: lower, on: "refresh_week", what: "first IngestDay (cold state)"},
	{name: "bt.front_s", unit: "s", better: lower, on: "refresh_week", what: "State.Observation(Front) after day 6"},
	{name: "bt.counts_s", unit: "s", better: lower, on: "refresh_week", what: "State.Observation(Counts) after day 6"},
	{name: "bt.model_s", unit: "s", better: lower, on: "refresh_week", what: "State.Observation(Model) after day 6"},
	{name: "bt.ingest_growth", unit: "ratio", better: lower, on: "refresh_week", what: "IngestDay wall of day 6 / day 1"},
	{name: "bt.state_bytes", unit: "B", better: lower, on: "refresh_week", what: "len(SummaryBytes) after day 6"},
	{name: "bt.train_rows", unit: "count", better: higher, on: "refresh_week", what: "finalized training rows after day 6"},
	{name: "bt.models_frozen", unit: "count", better: higher, on: "refresh_week", what: "frozen window models after day 6"},
	{name: "bt.full_day3_s", unit: "s", better: lower, on: "refresh_week", what: "ModeFull IngestDay of day 2 (third day), verification pass"},
	{name: "bt.delta_speedup_day3", unit: "ratio", better: higher, on: "refresh_week", what: "full / delta IngestDay wall on the third day, same run"},

	{name: "runtime.alloc_kb_per_event", unit: "kB", better: lower, what: "heap bytes allocated in the timed phase / input items processed"},
	{name: "runtime.mallocs_per_event", unit: "count", better: lower, what: "heap objects allocated / input items processed"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: lower, what: "GC CPU / total CPU over the timed phase (runtime/metrics)"},
	{name: "runtime.num_gc", unit: "count", better: lower, what: "GC cycles in the timed phase"},

	{name: "host.calib_sort_ms", unit: "ms", better: lower, what: "seeded 500k-row sort.SliceStable, median of the readings taken around every set-up and repetition"},
	{name: "bench.trace_overhead_share", unit: "ratio", better: lower, what: "median traced rep wall / median untraced rep wall - 1"},
	{name: "bench.failed_share", unit: "ratio", better: lower, what: "failed / attempted operations; 1 on any verification mismatch or crash"},
}

var btStageKeys = []string{"botelim", "label", "traindata", "featureselect", "reduce", "model", "score"}
