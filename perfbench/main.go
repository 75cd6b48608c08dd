// Command perfbench is the repository's benchmark. It drives the OLE DB for
// Data Mining provider through its public APIs only — provider.Session,
// dmserver/dmclient and the exported functions of each layer package — on
// three workloads:
//
//   - mine-batch: retrain the paper's running-example model (nested
//     [Product Purchases], Decision_Trees and Naive_Bayes) from a SHAPE
//     caseset and score every customer with a PREDICTION JOIN;
//   - sql-analytics: a four-query analytic mix over 200,000 customers;
//   - serve-mixed: point predictions, point SELECTs, $SYSTEM reads and 5%
//     writes from two wire connections to an in-process dmserver.
//
// Usage (from the root of the source tree):
//
//	bash perfbench/run.sh --workload mine-batch --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all
//
// With --trace 0 a run measures the end-to-end metrics; with --trace 1 it
// measures them once untraced, runs the loop again with spans and layer
// replays, and reports the per-layer metrics plus the tracing overhead. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// options are the command-line settings of one invocation.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	scale   float64 // multiplies every table size; only the self-tests shrink it
	out     string  // directory for traced-run dumps
	stdout  io.Writer
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" or all")
	seed := fs.Int64("seed", 1, "seed of the generated warehouse and op stream")
	seconds := fs.Float64("seconds", 20, "length of the measured loop")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for span dumps and layer summaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive, --trace 0 or 1")
		return 2
	}
	opt := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		scale:   1,
		out:     *out,
		stdout:  stdout,
	}
	var todo []*workloadDef
	if *name == "all" {
		todo = workloads
	} else if w := lookupWorkload(*name); w != nil {
		todo = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := printResult(stdout, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(w io.Writer, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// printMetrics writes one "name value unit" line per metric, sorted by name.
func printMetrics(w io.Writer, prefix string, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%-40s %14.6g %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}
