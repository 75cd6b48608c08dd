package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	st    spanStats
	units map[string]int64 // counter deltas of the traced loops
	a     *tally           // the untraced loop
	win   memWindow        // the untraced loop's runtime window
	obs   float64          // obs.overhead_frac
}

// layerMetric is one per-layer metric: its layer, the end-to-end metrics of
// BENCHMARK.json it should move (each on the workload named after "@"), the
// workload figures printed on detail lines through which it moves them, and
// how it is computed.
type layerMetric struct {
	name   string
	unit   string
	better string
	layer  string
	moves  []string
	via    []string
	value  func(in *layerInputs) float64
}

// perRow is the named spans' total time per row, in ns.
func perRow(names ...string) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 {
		r := in.st.sum(names...)
		return div(float64(r.Total), float64(r.Rows))
	}
}

// meanUS is the named spans' mean time per call, in us.
func meanUS(names ...string) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 {
		r := in.st.sum(names...)
		return div(float64(r.Total)/1e3, float64(r.Calls))
	}
}

// allocsPerRow is the named spans' allocations per row.
func allocsPerRow(names ...string) func(*layerInputs) float64 {
	return func(in *layerInputs) float64 {
		r := in.st.sum(names...)
		return div(float64(r.Allocs), float64(r.Rows))
	}
}

var pointOps = []string{"op:read.adhoc", "op:read.prepared"}

// layerMetrics lists every per-layer metric. BENCHMARK.json's per_layer list
// mirrors it (a self-test keeps the two in step).
var layerMetrics = []layerMetric{
	{"storage.scan_ns_per_row", "ns", "lower", "storage", []string{"rows_per_s@sql-analytics"}, []string{"sql_rows_per_s@sql-analytics"},
		perRow("storage.scan")},
	{"storage.index_probe_us", "us", "lower", "storage", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		meanUS("storage.index_probe")},
	{"storage.insert_us", "us", "lower", "storage", []string{"rows_per_s@serve-mixed"}, []string{"write_p50_ms@serve-mixed"},
		meanUS("storage.insert")},
	{"storage.stats_after_write_ms", "ms", "lower", "storage", []string{"rows_per_s@serve-mixed"}, []string{"read_p99_ms@serve-mixed", "read_ops_per_s@serve-mixed"},
		func(in *layerInputs) float64 { return meanUS("storage.stats_after_write")(in) / 1e3 }},
	{"storage.stats_warm_us", "us", "lower", "storage", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		meanUS("storage.stats_warm")},
	{"dmx.parse_us", "us", "lower", "dmx", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		meanUS("dmx.parse")},
	{"sqlengine.parse_us", "us", "lower", "sqlengine", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		meanUS("sqlengine.parse")},
	{"plancache.normalize_us", "us", "lower", "plancache", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		meanUS("plancache.normalize")},
	{"plancache.hit_ratio", "ratio", "higher", "plancache", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		func(in *layerInputs) float64 {
			h, m := in.units["plan_hits"], in.units["plan_misses"]
			return div(float64(h), float64(h+m))
		}},
	{"plancache.invalidations_per_write", "count", "lower", "plancache", []string{"rows_per_s@serve-mixed"}, []string{"read_p99_ms@serve-mixed"},
		func(in *layerInputs) float64 {
			return div(float64(in.units["plan_invalidations"]), float64(in.units["writes"]))
		}},
	{"sqlengine.exec_ns_per_row.filter", "ns", "lower", "sqlengine", []string{"rows_per_s@sql-analytics"}, []string{"sql_rows_per_s@sql-analytics"},
		perRow("sqlengine.exec.filter")},
	{"sqlengine.exec_ns_per_row.groupby", "ns", "lower", "sqlengine", []string{"rows_per_s@sql-analytics"}, []string{"sql_rows_per_s@sql-analytics"},
		perRow("sqlengine.exec.groupby")},
	{"sqlengine.exec_ns_per_row.orderby", "ns", "lower", "sqlengine", []string{"rows_per_s@sql-analytics"}, []string{"sql_rows_per_s@sql-analytics"},
		perRow("sqlengine.exec.orderby")},
	{"sqlengine.exec_ns_per_row.join", "ns", "lower", "sqlengine", []string{"rows_per_s@sql-analytics"}, []string{"sql_rows_per_s@sql-analytics"},
		perRow("sqlengine.exec.join")},
	{"sqlengine.morsel_speedup", "x", "higher", "sqlengine/par", []string{"rows_per_s@sql-analytics"}, []string{"sql_rows_per_s@sql-analytics"},
		func(in *layerInputs) float64 {
			one := in.st.sum("sqlengine.exec1.filter", "sqlengine.exec1.groupby").Total
			def := in.st.sum("sqlengine.exec.filter", "sqlengine.exec.groupby").Total
			return div(float64(one), float64(def))
		}},
	{"sqlengine.parallel_scans_per_stmt", "count", "higher", "sqlengine/par", []string{"rows_per_s@sql-analytics"}, []string{"sql_rows_per_s@sql-analytics"},
		func(in *layerInputs) float64 {
			n := in.st.sum("op:sql.filter", "op:sql.groupby", "op:sql.orderby", "op:sql.join").Calls
			return div(float64(in.units["parallel_scans"]), float64(n))
		}},
	{"sqlengine.point_exec_us", "us", "lower", "sqlengine", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		meanUS("sqlengine.exec.point")},
	{"sqlengine.source_ns_per_row", "ns", "lower", "sqlengine", []string{"rows_per_s@mine-batch"}, []string{"train_cases_per_s@mine-batch", "predict_cases_per_s@mine-batch"},
		perRow("sqlengine.source")},
	{"shape.ns_per_row", "ns", "lower", "shape", []string{"rows_per_s@mine-batch"}, []string{"train_cases_per_s@mine-batch", "predict_cases_per_s@mine-batch"},
		perRow("shape")},
	{"core.tokenize_ns_per_case", "ns", "lower", "core", []string{"rows_per_s@mine-batch"}, []string{"train_cases_per_s@mine-batch"},
		perRow("core.tokenize")},
	{"core.tokenize_allocs_per_case", "allocs", "lower", "core", []string{"allocs_per_row@mine-batch"}, nil,
		allocsPerRow("core.tokenize")},
	{"dtree.train_ns_per_case", "ns", "lower", "algo/dtree", []string{"rows_per_s@mine-batch"}, []string{"train_cases_per_s@mine-batch"},
		perRow("dtree.train")},
	{"nbayes.train_ns_per_case", "ns", "lower", "algo/nbayes", []string{"rows_per_s@mine-batch"}, []string{"train_cases_per_s@mine-batch"},
		perRow("nbayes.train")},
	{"dtree.predict_ns_per_case", "ns", "lower", "algo/dtree", []string{"rows_per_s@mine-batch", "rows_per_s@serve-mixed"}, []string{"predict_cases_per_s@mine-batch", "read_p50_ms@serve-mixed"},
		perRow("dtree.predict")},
	{"nbayes.predict_ns_per_case", "ns", "lower", "algo/nbayes", []string{"rows_per_s@mine-batch"}, []string{"predict_cases_per_s@mine-batch"},
		perRow("nbayes.predict")},
	{"dtree.predict_allocs_per_case", "allocs", "lower", "algo/dtree", []string{"allocs_per_row@mine-batch"}, nil,
		allocsPerRow("dtree.predict")},
	{"provider.train_self_ns_per_case", "ns", "lower", "provider", []string{"rows_per_s@mine-batch"}, []string{"train_cases_per_s@mine-batch"},
		func(in *layerInputs) float64 {
			r := in.st.sum("op:train.dtree", "op:train.nbayes")
			return div(float64(r.Self), float64(r.Rows))
		}},
	{"provider.predict_self_ns_per_case", "ns", "lower", "provider", []string{"rows_per_s@mine-batch"}, []string{"predict_cases_per_s@mine-batch"},
		func(in *layerInputs) float64 {
			r := in.st.sum("op:predict.dtree", "op:predict.nbayes")
			return div(float64(r.Self), float64(r.Rows))
		}},
	{"provider.point_exec_us", "us", "lower", "provider", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		meanUS("provider.exec.point")},
	{"rowset.encode_ns_per_row", "ns", "lower", "rowset", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		perRow("rowset.encode")},
	{"rowset.decode_ns_per_row", "ns", "lower", "rowset", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		perRow("rowset.decode")},
	{"rowset.wire_bytes_per_row", "B", "lower", "rowset", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		func(in *layerInputs) float64 {
			r := in.st.sum("rowset.encode")
			return div(float64(r.Bytes), float64(r.Rows))
		}},
	{"dmclient.roundtrip_us", "us", "lower", "dmclient", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		meanUS(pointOps...)},
	{"dmserver.wire_self_us", "us", "lower", "dmserver", []string{"rows_per_s@serve-mixed"}, []string{"read_p50_ms@serve-mixed"},
		func(in *layerInputs) float64 {
			r := in.st.sum(pointOps...)
			return div(float64(r.Self)/1e3, float64(r.Calls))
		}},
	{"obs.overhead_frac", "ratio", "lower", "obs", []string{"rows_per_s@serve-mixed", "rows_per_s@mine-batch"}, []string{"read_p50_ms@serve-mixed", "predict_cases_per_s@mine-batch"},
		func(in *layerInputs) float64 { return in.obs }},
	{"go.gc_cpu_frac", "ratio", "lower", "go", []string{"rows_per_s@mine-batch", "rows_per_s@serve-mixed"}, []string{"predict_cases_per_s@mine-batch", "read_p99_ms@serve-mixed"},
		func(in *layerInputs) float64 { return div(in.win.gcCPU, in.win.cpu) }},
	{"go.gc_cycles_per_1k_rows", "count", "lower", "go", []string{"allocs_per_row@mine-batch", "allocs_per_row@sql-analytics"}, nil,
		func(in *layerInputs) float64 { return div(float64(in.win.gcCycles)*1000, float64(in.a.rows)) }},
}

// source says where a metric's value comes from in workload w's traced run:
// its own loop, or the coverage pass when another workload is the metric's
// home (the first it moves). The obs comparison and the runtime figures are
// always the run's own.
func (m layerMetric) source(w string) string {
	_, home, _ := strings.Cut(m.moves[0], "@")
	if home == w || m.layer == "obs" || m.layer == "go" {
		return "ops"
	}
	return "coverage"
}

// coverage is how much of each other workload a traced run replays so every
// layer metric has a value: one mining iteration over the first 2,000
// customers, one round of the SQL mix, 300 wire ops.
func coverage(w *workloadDef, tr *tracer) loopCtl {
	switch w {
	case mineBatch:
		return loopCtl{iters: 1, sample: 2000, tr: tr}
	case sqlAnalytics:
		return loopCtl{iters: 1, tr: tr}
	}
	return loopCtl{iters: 300, tr: tr}
}

// tracedPass runs the workload's loop again with spans and replays, runs the
// coverage pass and the obs comparison, writes the span dump and layer
// summary, and returns the per-layer metrics.
func tracedPass(ctx context.Context, w *workloadDef, r *rig, opt options, a *tally, winA memWindow) (map[string]metricValue, *tally, error) {
	tr := newTracer()
	b, err := w.loop(ctx, r, loopCtl{budget: opt.seconds / 2, tr: tr})
	if err != nil {
		return nil, nil, fmt.Errorf("traced loop: %w", err)
	}
	all := newTally()
	all.merge(b)
	for _, other := range workloads {
		if other == w {
			continue
		}
		c, err := other.loop(ctx, r, coverage(other, tr))
		if err != nil {
			return nil, nil, fmt.Errorf("coverage %s: %w", other.name, err)
		}
		all.merge(c)
	}
	// The comparison builds two fresh rigs; drop this one's warehouse first.
	r.close()
	obsFrac, err := w.obsOverhead(ctx, r.customers, r.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("obs overhead: %w", err)
	}

	spans := tr.snapshot()
	in := &layerInputs{st: newSpanStats(spans), units: all.units, a: a, win: winA, obs: obsFrac}
	out := map[string]metricValue{}
	var report bytes.Buffer
	fmt.Fprintf(&report, "# %s seed=%d: per-layer metrics (source: ops = this workload's traced loop, coverage = replayed sample)\n", w.name, opt.seed)
	for _, m := range layerMetrics {
		v := m.value(in)
		out[m.name] = metricValue{v, m.unit}
		via := ""
		if len(m.via) > 0 {
			via = " via " + strings.Join(m.via, ", ")
		}
		fmt.Fprintf(&report, "layer  %-36s %14.6g %-6s %-8s %-13s moves %s%s\n", m.name, v, m.unit, m.source(w.name), m.layer, strings.Join(m.moves, ", "), via)
	}
	fmt.Fprintf(&report, "\n# tracing overhead: traced loop against the untraced loop (replay time excluded)\n")
	rA, rB := a.rowRate(), b.rowRate()
	fmt.Fprintf(&report, "overhead %-28s untraced %14.6g traced %14.6g  %+.2f%%\n", "rows_per_s", rA, rB, 100*(rB/rA-1))
	for i, d := range w.details(a) {
		db := w.details(b)[i]
		if d.ok && db.ok {
			fmt.Fprintf(&report, "overhead %-28s untraced %14.6g traced %14.6g  %+.2f%%\n", d.name, d.val, db.val, 100*(db.val/d.val-1))
		}
	}
	fmt.Fprintf(&report, "\n# spans by name: self = duration minus replay children\n")
	writeSummary(&report, summarize(spans))

	dir := filepath.Join(opt.out, fmt.Sprintf("%s-seed%d", w.name, opt.seed))
	if err := dumpSpans(filepath.Join(dir, "spans.jsonl"), spans); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), report.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	if _, err := opt.stdout.Write(report.Bytes()); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(opt.stdout, "wrote %s and %s (%d spans)\n", filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "layers.txt"), len(spans))
	for _, e := range all.errs {
		fmt.Fprintf(opt.stdout, "FAIL   %s\n", e)
	}
	return out, all, nil
}
