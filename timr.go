// Package timr is a reproduction of "Temporal Analytics on Big Data for
// Web Advertising" (Chandramouli, Goldstein, Duan; ICDE 2012): the TiMR
// framework — declarative temporal continuous queries compiled onto
// map-reduce with an embedded single-node temporal engine — together with
// the paper's end-to-end behavioral-targeting (BT) pipeline, the
// baselines it is evaluated against, and a synthetic ad-log workload
// generator standing in for the paper's proprietary logs.
//
// The package is a facade over the part of the implementation packages
// that the examples and commands use:
//
//   - internal/temporal — the temporal DSMS engine and query builder;
//   - internal/mapreduce — the simulated DFS + map-reduce cluster;
//   - internal/core — TiMR itself: plan annotation, fragmentation,
//     temporal partitioning and the cost-based optimizer;
//   - internal/bt — the BT pipeline's temporal queries;
//   - internal/baseline — SCOPE strawman, custom reducers, F-Ex, KE-pop;
//   - internal/ml, internal/stats, internal/workload — supporting
//     substrates.
//
// # Quick start
//
// Build a temporal query with the fluent builder, annotate it with a
// partitioning key, and run it over a cluster:
//
//	schema := timr.NewSchema(
//		timr.Field{Name: "Time", Kind: timr.KindInt},
//		timr.Field{Name: "UserId", Kind: timr.KindInt},
//		timr.Field{Name: "AdId", Kind: timr.KindInt},
//	)
//	plan := timr.Scan("clicks", schema).
//		Exchange(timr.PartitionBy{Cols: []string{"AdId"}}).
//		GroupApply([]string{"AdId"}, func(g *timr.Plan) *timr.Plan {
//			return g.WithWindow(6 * timr.Hour).Count("ClickCount")
//		})
//
//	cluster := timr.NewCluster(timr.ClusterConfig{Machines: 150})
//	cluster.FS.Write("ds.clicks", timr.SinglePartition(schema, rows))
//	t := timr.New(cluster, timr.DefaultTiMRConfig())
//	if _, err := t.Run(plan, map[string]string{"clicks": "ds.clicks"}, "out"); err != nil {
//		log.Fatal(err)
//	}
//	events, _ := t.ResultEvents("out")
//
// The same plan runs unmodified over a live feed with an Engine — the
// paper's real-time-readiness property (see examples/realtime).
package timr

import (
	"timr/internal/bt"
	"timr/internal/core"
	"timr/internal/mapreduce"
	"timr/internal/ml"
	"timr/internal/obs"
	"timr/internal/temporal"
	"timr/internal/tsql"
	"timr/internal/workload"
)

// ---- Observability ----

// MetricScope is a named tree of counters, gauges and histograms (see
// internal/obs). Attached to ClusterConfig.Obs or TiMRConfig.Obs it
// collects per-stage and per-operator counters while a job runs;
// Snapshot/Table read them back.
type MetricScope = obs.Scope

// NewMetricScope creates a metric scope root.
var NewMetricScope = obs.New

// ---- StreamSQL surface ----

// SQLCatalog maps stream names to schemas for CompileSQL.
type SQLCatalog = tsql.Catalog

// CompileSQL compiles a StreamSQL query (the paper's second user surface,
// §III-A) into the same logical plan the builder produces.
var CompileSQL = tsql.Compile

// ---- Temporal engine (StreamInsight stand-in) ----

// Core data-model types of the temporal engine.
type (
	// Time is application time in milliseconds.
	Time = temporal.Time
	// Field is a named, typed column.
	Field = temporal.Field
	// Schema describes a stream's payload columns.
	Schema = temporal.Schema
	// Row is one tuple of values.
	Row = temporal.Row
	// Event is a payload with validity lifetime [LE, RE).
	Event = temporal.Event
	// FuncSink adapts callbacks to the engine's Sink push interface.
	FuncSink = temporal.FuncSink
	// Plan is a logical continuous-query plan node.
	Plan = temporal.Plan
	// PartitionBy annotates logical exchange operators.
	PartitionBy = temporal.PartitionBy
)

// KindInt is the integer value kind.
const KindInt = temporal.KindInt

// Time units.
const (
	Minute = temporal.Minute
	Hour   = temporal.Hour
	Day    = temporal.Day
)

// Constructors and helpers re-exported from the engine.
var (
	Int           = temporal.Int
	NewSchema     = temporal.NewSchema
	Scan          = temporal.Scan
	PointEvent    = temporal.PointEvent
	NewEngine     = temporal.NewEngine
	WithSink      = temporal.WithSink
	WithCTIPeriod = temporal.WithCTIPeriod
	RunPlan       = temporal.RunPlan
	ColEqInt      = temporal.ColEqInt
)

// ---- Map-reduce substrate ----

// ClusterConfig sizes and seeds the simulated map-reduce cluster.
type ClusterConfig = mapreduce.Config

// Cluster constructors.
var (
	NewCluster      = mapreduce.NewCluster
	SinglePartition = mapreduce.SinglePartition
)

// ---- TiMR framework ----

// TiMR binds a cluster to the framework (paper §III).
type TiMR = core.TiMR

// Framework constructors.
var (
	New               = core.New
	DefaultTiMRConfig = core.DefaultConfig
	NewOptimizer      = core.NewOptimizer
	DefaultStats      = core.DefaultStats
	// NewStreamingJob runs a fragmented plan as a live pipelined dataflow
	// (the paper's §VII "MapReduce Online" direction).
	NewStreamingJob = core.NewStreamingJob
	// Streaming-job options.
	WithMachines     = core.WithMachines
	WithStreamConfig = core.WithConfig
)

// ---- Behavioral targeting ----

// BT constructors and plans.
var (
	DefaultBTParams = bt.DefaultParams
	NewBTPipeline   = bt.NewPipeline
	RunBTSingleNode = bt.RunSingleNode
	BotElimPlan     = bt.BotElimPlan
)

// ---- Workload and ML ----

// StreamClick is the click stream id of the unified log (paper Figure 9).
const StreamClick = workload.StreamClick

// Supporting constructors.
var (
	GenerateWorkload      = workload.Generate
	DefaultWorkloadConfig = workload.DefaultConfig
	UnifiedSchema         = workload.UnifiedSchema
	LiftCoverageCurve     = ml.LiftCoverageCurve
)
