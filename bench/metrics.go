package main

// The benchmark's vocabulary. BENCHMARK.json at the repository root
// lists the same names, units and directions (bench_test.go keeps the
// two in step); README.md says what each per-layer metric is expected
// to move.

type metricDef struct {
	name, unit, better string
}

var workloadNames = []string{"live_saturate", "live_paced", "forensic_replay", "incident_query"}

// endToEnd metrics are reported by every workload (the driver needs
// every metric from every run), so each name is generic and README.md
// maps it to the workload-specific quantity it carries.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p75_ms", "ms", "lower"},
	{"disk_bytes_per_event", "B/event", "lower"},
	{"setup_s", "s", "lower"},
}

// alias names each end-to-end metric the way ISSUE 11 and later issues
// refer to it on one workload.
var alias = map[string]map[string]string{
	"live_saturate": {
		"throughput_per_s":     "live_events_per_s",
		"latency_p50_ms":       "live_backlog_latency_p50_ms",
		"latency_p75_ms":       "live_backlog_latency_p75_ms",
		"disk_bytes_per_event": "live_disk_bytes_per_event",
	},
	"live_paced": {
		"throughput_per_s":     "paced_delivered_events_per_s",
		"latency_p50_ms":       "event_latency_p50_ms",
		"latency_p75_ms":       "event_latency_p75_ms",
		"disk_bytes_per_event": "paced_disk_bytes_per_event",
	},
	"forensic_replay": {
		"throughput_per_s":     "replay_events_per_s",
		"latency_p50_ms":       "replay_filtered_ms",
		"latency_p75_ms":       "replay_filtered_p75_ms",
		"disk_bytes_per_event": "store_bytes_per_event",
	},
	"incident_query": {
		"throughput_per_s":     "queries_per_s",
		"latency_p50_ms":       "query_latency_p50_ms",
		"latency_p75_ms":       "query_latency_p75_ms",
		"disk_bytes_per_event": "history_bytes_per_event",
	},
}

// perLayer metrics come from the traced run (--trace 1). A workload
// reports 0 for a layer that is not on its path.
var perLayer = []metricDef{
	// In situ, live workloads: wrappers around each Tee member and
	// engine hook, Service.Stats sampled every 50 ms.
	{"ingest.wire_to_sink_p50_ms", "ms", "lower"},
	{"ingest.wire_to_sink_p90_ms", "ms", "lower"},
	{"ingest.stage_pending_max", "count", "lower"},
	{"ingest.accepted", "count", "higher"},
	{"ingest.dropped", "count", "lower"},
	{"ingest.denied", "count", "lower"},
	{"core.emit_ns_per_event", "ns/event", "lower"},
	{"core.busy_share", "ratio", "lower"},
	{"core.alerts", "count", "higher"},
	{"core.incidents", "count", "higher"},
	{"histstore.hook_ns_per_record", "ns/record", "lower"},
	{"histstore.records", "count", "higher"},
	{"histstore.busy_share", "ratio", "lower"},
	{"evstore.emit_ns_per_event", "ns/event", "lower"},
	{"evstore.busy_share", "ratio", "lower"},
	{"evstore.segments", "count", "lower"},
	{"process.allocs_per_event", "1/event", "lower"},
	{"process.alloc_bytes_per_event", "B/event", "lower"},
	{"process.gc_pause_total_ms", "ms", "lower"},
	{"process.peak_heap_mb", "MB", "lower"},
	{"loadgen.lateness_p50_ms", "ms", "lower"},
	{"loadgen.lateness_p99_ms", "ms", "lower"},
	{"loadgen.wire_bytes_per_event", "B/event", "lower"},
	{"tail.event_latency_p90_ms", "ms", "lower"},
	{"tail.event_latency_p99_ms", "ms", "lower"},
	{"tail.event_latency_p999_ms", "ms", "lower"},
	{"tail.alert_latency_p50_ms", "ms", "lower"},
	{"tail.alert_latency_p90_ms", "ms", "lower"},
	{"tail.query_latency_p90_ms", "ms", "lower"},
	{"tail.query_latency_p99_ms", "ms", "lower"},

	// Drills: one goroutine at GOMAXPROCS(1), the workload's own inputs.
	{"wsproto.read_ns_per_event", "ns/event", "lower"},
	{"wsproto.read_allocs_per_event", "1/event", "lower"},
	{"auth.verify_ns", "ns", "lower"},
	{"trace.json_decode_ns_per_event", "ns/event", "lower"},
	{"trace.json_decode_allocs_per_event", "1/event", "lower"},
	{"trace.json_decode_bytes_per_event", "B/event", "lower"},
	{"trace.stage_hop_ns_per_event", "ns/event", "lower"},
	{"trace.bin_encode_ns_per_event", "ns/event", "lower"},
	{"ingest.inproc_ns_per_event", "ns/event", "lower"},
	{"ingest.inproc_allocs_per_event", "1/event", "lower"},
	{"ingest.self_ns_per_event", "ns/event", "lower"},
	{"rules.ns_per_event", "ns/event", "lower"},
	{"rules.allocs_per_event", "1/event", "lower"},
	{"anomaly.ns_per_event", "ns/event", "lower"},
	{"core.ns_per_event", "ns/event", "lower"},
	{"core.allocs_per_event", "1/event", "lower"},
	{"core.self_ns_per_event", "ns/event", "lower"},
	{"evstore.append_ns_per_event", "ns/event", "lower"},
	{"evstore.append_allocs_per_event", "1/event", "lower"},
	{"evstore.replay_decode_ns_per_event", "ns/event", "lower"},
	{"evstore.replay_allocs_per_event", "1/event", "lower"},
	{"evstore.frames_skipped", "count", "higher"},
	{"evstore.segments_selected", "count", "lower"},
	{"replay.serial_events_per_s", "1/s", "higher"},
	{"histstore.append_ns_per_record", "ns/record", "lower"},
	{"histstore.disk_bytes_per_record", "B/record", "lower"},
	{"histstore.query_records_scanned", "count", "lower"},
	{"histstore.query_segments_selected", "count", "lower"},
	{"histstore.query_allocs_per_op", "1/op", "lower"},
	{"histstore.query_all_p50_ms", "ms", "lower"},
	{"histstore.query_severity_p50_ms", "ms", "lower"},
	{"histstore.query_actor_p50_ms", "ms", "lower"},
	{"histstore.query_class_p50_ms", "ms", "lower"},
	{"histstore.query_band_p50_ms", "ms", "lower"},
	{"histstore.query_window_p50_ms", "ms", "lower"},
	{"histstore.query_alerts_p50_ms", "ms", "lower"},
	{"budget.hop_sum_ns_per_event", "ns/event", "lower"},
	{"budget.serial_ns_per_event", "ns/event", "lower"},
	{"budget.coverage", "ratio", "higher"},
	{"trace_overhead_pct", "%", "lower"},
}

// metricValue is one reported number, in the result line's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a vocabulary: set panics on a
// name the vocabulary lacks (a bug), and values fills what a workload
// did not measure with 0.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
	note map[string]string // sample counts and the like, for the report
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: map[string]float64{}, note: map[string]string{}}
}

func (m *metricSet) set(name string, v float64, note string) {
	for _, d := range m.defs {
		if d.name == name {
			m.vals[name] = v
			if note != "" {
				m.note[name] = note
			}
			return
		}
	}
	panic("bench: metric " + name + " is not in the vocabulary")
}

func (m *metricSet) values() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.vals[d.name], Unit: d.unit}
	}
	return out
}
