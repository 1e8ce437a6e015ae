package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"train_s", "s"},
	{"infer_s", "s"},
	{"f1", "share"},
	{"warm_s", "s"},
	{"read_p50_ms", "ms"},
	{"knee_rps", "1/s"},
	{"mixed_read_p50_ms", "ms"},
	{"retrain_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by traced runs.
var perLayer = []metricDef{
	{"core.train_rounds", "count"},
	{"core.infer_rounds", "count"},
	{"core.phase1_edges", "count"},
	{"core.final_edges", "count"},
	{"core.probe_coverage", "share"},
	{"core.probe_sum_s", "s"},
	{"core.train_s", "s"},
	{"joc.division_s", "s"},
	{"joc.build_us", "us"},
	{"joc.candidate_pairs", "count"},
	{"nn.fit_s", "s"},
	{"nn.encode_us", "us"},
	{"knn.predict_us", "us"},
	{"knn.loo_us", "us"},
	{"svm.fit_s", "s"},
	{"svm.predict_us", "us"},
	{"svm.probe_n", "count"},
	{"svm.probe_width", "count"},
	{"graph.bfs_us", "us"},
	{"graph.subgraph_us", "us"},
	{"graph.paths_per_pair", "count"},
	{"serve.request_p50_ms", "ms"},
	{"serve.request_p99_ms", "ms"},
	{"serve.client_gap_ms", "ms"},
	{"serve.coalesce_wait_ms", "ms"},
	{"serve.batch_pairs", "count"},
	{"serve.rejected_429", "count"},
	{"serve.read_failed_share", "share"},
	{"serve.swap_mislabelled", "count"},
	{"ingest.write_server_ms", "ms"},
	{"ingest.retrain_snapshot_s", "s"},
	{"ingest.retrain_train_s", "s"},
	{"ingest.retrain_publish_s", "s"},
	{"load.read.late_share", "share"},
	{"load.read.max_lag_ms", "ms"},
	{"load.ladder.late_share", "share"},
	{"load.ladder.max_lag_ms", "ms"},
	{"load.mixed.late_share", "share"},
	{"load.mixed.max_lag_ms", "ms"},
	{"load.read.p90_ms", "ms"},
	{"load.read.p99_ms", "ms"},
	{"load.mixed.read_p90_ms", "ms"},
	{"load.mixed.read_p99_ms", "ms"},
	{"load.mixed.write_p50_ms", "ms"},
	{"load.mixed.write_p90_ms", "ms"},
	{"load.mixed.write_p99_ms", "ms"},
	{"load.retrain.read_p50_ms", "ms"},
	{"load.retrain.read_p99_ms", "ms"},
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line: the only line a caller needs to parse.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func pick(defs []metricDef, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.name] = value{Value: vals[d.name], Unit: d.unit}
	}
	return out
}
