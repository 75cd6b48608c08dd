package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func streamOps(seed int64, conn, n int) []serveOp {
	s := newServeStream(seed, conn, serveConns, 1000)
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = s.op()
	}
	return ops
}

func TestOpStreamDeterministic(t *testing.T) {
	for conn := 0; conn < serveConns; conn++ {
		if a, b := streamOps(7, conn, 500), streamOps(7, conn, 500); !reflect.DeepEqual(a, b) {
			t.Fatalf("conn %d: same seed gave different op streams", conn)
		}
		if a, b := streamOps(7, conn, 500), streamOps(8, conn, 500); reflect.DeepEqual(a, b) {
			t.Fatalf("conn %d: seeds 7 and 8 gave the same op stream", conn)
		}
	}
	queries := func(seed int64) []string {
		var out []string
		for _, q := range sqlQueries(rand.New(rand.NewSource(seed))) {
			out = append(out, q.text)
		}
		return out
	}
	if !reflect.DeepEqual(queries(3), queries(3)) || reflect.DeepEqual(queries(3), queries(4)) {
		t.Fatal("sql-analytics queries do not follow the seed")
	}
}

func TestOpStreamOwnershipAndMix(t *testing.T) {
	writes := 0
	const n = 20000
	for conn := 0; conn < serveConns; conn++ {
		ids := map[int64]bool{}
		for _, o := range streamOps(1, conn, n) {
			if o.write() {
				writes++
			}
			if o.kind == "system" {
				continue
			}
			if o.kind == "insert" {
				ids[o.id] = true
				continue
			}
			if !ids[o.id] && (o.id > 1000 || (o.id-1)%serveConns != int64(conn)) {
				t.Fatalf("conn %d touched customer %d it does not own", conn, o.id)
			}
		}
	}
	if share := float64(writes) / (serveConns * n); share < 0.04 || share > 0.06 {
		t.Fatalf("write share %.3f, want about 0.05", share)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // unsorted on purpose
	}
	if v, beyond, ok := percentile(samples, 0.90); !ok || v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v (%d beyond, ok %v), want 90 with 10 beyond", v, beyond, ok)
	}
	if _, beyond, ok := percentile(samples, 0.99); ok || beyond != 1 {
		t.Fatalf("p99 of 100 samples reported (ok %v, %d beyond); needs 1000 samples", ok, beyond)
	}
	d := latencyDetail("read_p99_ms", samples, 0.99)
	if d.ok || !strings.Contains(d.String(), "n=100") || !strings.Contains(d.String(), "unreported") {
		t.Fatalf("unreportable p99 printed as %q", d.String())
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	d = latencyDetail("read_p99_ms", big, 0.99)
	if !d.ok || d.val != 990 || !strings.Contains(d.String(), "n=1000") {
		t.Fatalf("p99 of 1000 samples printed as %q", d.String())
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples reported")
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	ms := func(v int) int64 { return int64(time.Duration(v) * time.Millisecond) }
	// op 1 (100ms) replays shape (30ms, itself replaying a 10ms source),
	// tokenize (20ms) and train (25ms); a 40ms follow-up is not subtracted.
	spans := []span{
		{ID: 1, Name: "op:train.dtree", Start: ms(0), End: ms(100), Rows: 10},
		{ID: 2, Parent: 1, Name: "shape", Start: ms(110), End: ms(140), Replay: true, Rows: 20},
		{ID: 3, Parent: 2, Name: "sqlengine.source", Start: ms(150), End: ms(160), Replay: true},
		{ID: 4, Parent: 1, Name: "core.tokenize", Start: ms(160), End: ms(180), Replay: true},
		{ID: 5, Parent: 1, Name: "dtree.train", Start: ms(180), End: ms(205), Replay: true},
		{ID: 6, Parent: 1, Name: "storage.stats_after_write", Start: ms(210), End: ms(250)},
		{ID: 7, Name: "op:train.dtree", Start: ms(300), End: ms(310), Rows: 10},
		{ID: 8, Parent: 7, Name: "dtree.train", Start: ms(320), End: ms(340), Replay: true},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 25 * time.Millisecond, 2: 20 * time.Millisecond, 3: 10 * time.Millisecond,
		4: 20 * time.Millisecond, 5: 25 * time.Millisecond, 6: 40 * time.Millisecond, 7: 0, 8: 20 * time.Millisecond}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	in := &layerInputs{st: newSpanStats(spans)}
	if r := in.st.sum("op:train.dtree"); r.Self != 25*time.Millisecond || r.Rows != 20 || r.Calls != 2 {
		t.Fatalf("op:train.dtree sums to %+v, want 25ms self over 20 rows in 2 calls", r)
	}
	if got := meanUS("dtree.train")(in); got != 22500 {
		t.Fatalf("mean dtree.train %v us, want 22500", got)
	}
	rows := summarize(spans)
	if rows[0].Name != "dtree.train" || rows[0].Calls != 2 || rows[0].Self != 45*time.Millisecond {
		t.Fatalf("summary leads with %+v, want dtree.train 2 calls 45ms self", rows[0])
	}
}

func TestInBucket(t *testing.T) {
	for _, c := range []struct {
		label string
		age   float64
		want  bool
	}{
		{"<= 22.6", 22.6, true}, {"<= 22.6", 22.7, false},
		{"> 47.73", 47.74, true}, {"> 47.73", 47.73, false},
		{"(32.98, 40.57]", 40.57, true}, {"(32.98, 40.57]", 32.98, false}, {"garbage", 30, false},
	} {
		if got := inBucket(c.label, c.age); got != c.want {
			t.Errorf("inBucket(%q, %v) = %v", c.label, c.age, got)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, harness %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	e2e := endToEnd(1, &tally{ops: 1, rows: 1, active: time.Second}, memWindow{})
	details := map[string]bool{}
	for _, w := range workloads {
		for _, d := range w.details(newTally()) {
			details[d.name+"@"+w.name] = true
		}
	}
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, harness reports %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s) not reported with that unit: %+v", m.Name, m.Unit, got)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		h := layerMetrics[i]
		if m.Name != h.name || m.Unit != h.unit || m.Better != h.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, harness %s %s %s", i, m, h.name, h.unit, h.better)
		}
		homes := map[string]bool{}
		for _, mv := range h.moves {
			metric, w, _ := strings.Cut(mv, "@")
			if _, ok := e2e[metric]; !ok || lookupWorkload(w) == nil {
				t.Errorf("%s moves %q: want <end-to-end metric of BENCHMARK.json>@<workload>", h.name, mv)
			}
			homes[w] = true
		}
		for _, v := range h.via {
			_, w, _ := strings.Cut(v, "@")
			if !details[v] || !homes[w] {
				t.Errorf("%s via %q: want a detail of a workload it moves", h.name, v)
			}
		}
	}
}

// TestSmokeEveryMetric runs every workload at a tiny scale, untraced and
// traced, and checks that each run is correct and emits every metric
// BENCHMARK.json names, with its unit.
func TestSmokeEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, trace := range []string{"0", "1"} {
		for _, w := range workloads {
			var out bytes.Buffer
			opt := options{seed: 3, seconds: 300 * time.Millisecond, trace: trace == "1", scale: 0.02, out: t.TempDir(), stdout: &out}
			res0, err := runWorkload(w, opt)
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.name, trace, err, out.String())
			}
			if err := printResult(&out, res0); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%s: %+v", w.name, trace, res)
			}
			want := b.EndToEnd
			if trace == "1" {
				want = b.PerLayer
			}
			var got []string
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s (%s) missing or with unit %q", w.name, trace, m.Name, m.Unit, v.Unit)
				}
				got = append(got, m.Name)
			}
			if len(res.Metrics) != len(want) {
				var extra []string
				for k := range res.Metrics {
					extra = append(extra, k)
				}
				sort.Strings(extra)
				t.Errorf("%s trace=%s: %d metrics %v, want exactly %v", w.name, trace, len(res.Metrics), extra, got)
			}
			if trace == "0" {
				for _, d := range w.details(newTally()) {
					if !strings.Contains(out.String(), "detail "+d.name) {
						t.Errorf("%s: detail %s not printed", w.name, d.name)
					}
				}
				if w == serveMixed && !strings.Contains(out.String(), "detail ungated_lost_writes") {
					t.Errorf("%s: lost-write count of the ungated phase not printed", w.name)
				}
			}
		}
	}
}
