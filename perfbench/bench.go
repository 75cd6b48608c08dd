package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/provider"
	"repro/internal/workload"
)

// setupRepeats is how many times a run builds its workload from scratch;
// setup_s is the median, and the last build is the one measured.
const setupRepeats = 3

// workloadDef is one benchmark workload.
type workloadDef struct {
	name      string
	why       string
	customers int // warehouse size; the self-tests scale it down
	// prepare finishes a freshly generated warehouse: indexes, models,
	// prepared statements, servers.
	prepare func(ctx context.Context, r *rig) error
	// loop runs the closed loop until the control says stop.
	loop func(ctx context.Context, r *rig, lc loopCtl) (*tally, error)
	// details are the workload's own end-to-end figures, printed by name
	// next to the common metrics.
	details func(t *tally) []detail
	// after, if set, runs once after the measured loop, outside the
	// measurement; its figures are printed as details.
	after func(ctx context.Context, r *rig) ([]detail, error)
	// obsOverhead times the workload's statements on a fresh rig against a
	// twin built without an observability registry.
	obsOverhead func(ctx context.Context, customers int, seed int64) (float64, error)
}

var workloads = []*workloadDef{mineBatch, sqlAnalytics, serveMixed}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rig is one set-up instance of a workload: a provider over a generated
// warehouse, plus the wire front end once a workload attaches one.
type rig struct {
	p         *provider.Provider
	sess      *provider.Session
	truth     *workload.Truth
	customers int
	seed      int64
	serve     *serveRig
}

// newRig generates the warehouse and lets the workload finish its set-up.
func newRig(ctx context.Context, w *workloadDef, customers int, seed int64, opts ...provider.Option) (*rig, error) {
	p, err := provider.New(opts...)
	if err != nil {
		return nil, err
	}
	truth, err := workload.Populate(p.DB, workload.Config{Customers: customers, Seed: seed})
	if err != nil {
		return nil, err
	}
	r := &rig{p: p, sess: p.NewSession(), truth: truth, customers: customers, seed: seed}
	if w != nil && w.prepare != nil {
		if err := w.prepare(ctx, r); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// close stops the rig's server and drops its provider; it may be called
// more than once.
func (r *rig) close() {
	if r.serve != nil {
		r.serve.close()
		r.serve = nil
	}
	if r.sess != nil {
		r.sess.Close() //nolint:errcheck // closing an idle in-process session cannot fail meaningfully
	}
	r.p, r.sess, r.truth = nil, nil, nil
}

// twins builds two rigs over the same warehouse, one with the default
// observability registry and one without, readies both with prep, and
// returns median(time on)/median(time off) - 1 over rounds alternating runs
// of fn.
func twins(ctx context.Context, customers int, seed int64, rounds int, prep, fn func(*rig) error) (float64, error) {
	on, err := newRig(ctx, nil, customers, seed)
	if err != nil {
		return 0, err
	}
	defer on.close()
	off, err := newRig(ctx, nil, customers, seed, provider.WithObsRegistry(nil))
	if err != nil {
		return 0, err
	}
	defer off.close()
	for _, x := range []*rig{on, off} {
		if err := prep(x); err != nil {
			return 0, err
		}
	}
	var a, b []float64
	for i := 0; i < rounds; i++ {
		for _, x := range []*rig{on, off} {
			t0 := time.Now()
			if err := fn(x); err != nil {
				return 0, err
			}
			if x == on {
				a = append(a, time.Since(t0).Seconds())
			} else {
				b = append(b, time.Since(t0).Seconds())
			}
		}
	}
	return median(a)/median(b) - 1, nil
}

// exec runs one statement on the rig's in-process session.
func (r *rig) exec(ctx context.Context, stmt string) error {
	_, err := r.sess.Execute(ctx, stmt)
	if err != nil {
		return fmt.Errorf("%w\nstatement: %s", err, stmt)
	}
	return nil
}

// loopCtl bounds one run of a workload loop.
type loopCtl struct {
	budget time.Duration // stop starting work once this much has elapsed
	iters  int           // if > 0, run exactly this many iterations/ops instead
	sample int           // if > 0, restrict batch statements to this many customers
	tr     *tracer       // non-nil in the traced pass: record spans, replay layers
}

// more reports whether the loop should start iteration i (0-based) after
// elapsed time.
func (lc loopCtl) more(i int, elapsed time.Duration) bool {
	if lc.iters > 0 {
		return i < lc.iters
	}
	return elapsed < lc.budget
}

// tally accumulates what a loop did. One goroutine owns a tally; concurrent
// loops keep one each and merge them.
type tally struct {
	ops    int64
	failed int64
	rows   int64         // input rows consumed
	active time.Duration // time the measured statements took (see README)
	replay time.Duration // time spent replaying layers (traced pass only)
	lat    map[string][]float64
	busy   map[string]time.Duration
	// windows split the measured time into iterations (one-session loops)
	// or one-second slices (serve-mixed); throughputs are their medians.
	windows []window
	units   map[string]int64
	errs    []string
}

func newTally() *tally {
	return &tally{lat: map[string][]float64{}, busy: map[string]time.Duration{}, units: map[string]int64{}}
}

// window is one slice of a measured loop.
type window struct {
	rows int64
	dur  time.Duration
}

// mark is the tally's position, as a window from the start of the loop.
func (t *tally) mark() window { return window{t.rows, t.active} }

// closeWindow records the window that began at mark m.
func (t *tally) closeWindow(m window) {
	t.windows = append(t.windows, window{t.rows - m.rows, t.active - m.dur})
}

// rates are rows/duration of every window.
func (t *tally) rates() []float64 {
	var rates []float64
	for _, w := range t.windows {
		if w.dur > 0 {
			rates = append(rates, float64(w.rows)/w.dur.Seconds())
		}
	}
	return rates
}

// rowRate is the median over windows of rows/duration; with no windows it
// is the rate over the whole measured time.
func (t *tally) rowRate() float64 {
	if rates := t.rates(); len(rates) > 0 {
		return median(rates)
	}
	return float64(t.rows) / t.active.Seconds()
}

// op records one completed statement of class cls.
func (t *tally) op(cls string, d time.Duration, rows int64) {
	t.ops++
	t.rows += rows
	t.lat[cls] = append(t.lat[cls], float64(d)/float64(time.Millisecond))
	t.busy[cls] += d
}

// fail counts one failed or wrong-result op, keeping the first few reasons.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.rows += o.rows
	t.replay += o.replay
	for k, v := range o.lat {
		t.lat[k] = append(t.lat[k], v...)
	}
	t.windows = append(t.windows, o.windows...)
	for k, v := range o.busy {
		t.busy[k] += v
	}
	for k, v := range o.units {
		t.units[k] += v
	}
	for _, e := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

// memWindow is what the Go runtime reports about one measured interval.
type memWindow struct {
	allocs   uint64
	bytes    uint64
	peakHeap uint64
	gcCPU    float64 // seconds of CPU the GC used
	cpu      float64 // seconds of CPU in total
	gcCycles uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() (gcCPU, cpu float64, cycles uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// heapSampleEvery is how often the peak-heap sampler looks at the heap.
const heapSampleEvery = 2 * time.Millisecond

// measure runs fn after a full GC and reports its allocations, the peak
// in-use heap while it ran, and the GC's share of the CPU.
func measure(fn func() error) (memWindow, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0, cpu0, cyc0 := readRuntime()

	stop := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var max uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	err := fn()
	close(stop)
	var w memWindow
	w.peakHeap = <-peak

	runtime.ReadMemStats(&after)
	gc1, cpu1, cyc1 := readRuntime()
	w.allocs = after.Mallocs - before.Mallocs
	w.bytes = after.TotalAlloc - before.TotalAlloc
	w.gcCPU, w.cpu, w.gcCycles = gc1-gc0, cpu1-cpu0, cyc1-cyc0
	return w, err
}

// endToEnd computes the metrics every workload reports.
func endToEnd(setupS float64, t *tally, w memWindow) map[string]metricValue {
	rows := float64(max64(t.rows, 1))
	return map[string]metricValue{
		"setup_s":             {setupS, "s"},
		"rows_per_s":          {t.rowRate(), "rows/s"},
		"allocs_per_row":      {float64(w.allocs) / rows, "allocs"},
		"alloc_bytes_per_row": {float64(w.bytes) / rows, "B"},
		"peak_heap_mb":        {float64(w.peakHeap) / (1 << 20), "MB"},
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// detail is one workload-specific end-to-end figure, printed by name.
type detail struct {
	name string
	unit string
	val  float64
	note string // e.g. the sample count behind a percentile
	ok   bool   // false: not reportable (note says why)
}

func (d detail) String() string {
	if !d.ok {
		return fmt.Sprintf("detail %-40s %14s %s (%s)", d.name, "unreported", d.unit, d.note)
	}
	s := fmt.Sprintf("detail %-40s %14.6g %s", d.name, d.val, d.unit)
	if d.note != "" {
		s += " (" + d.note + ")"
	}
	return s
}

func rate(name, unit string, n int64, d time.Duration) detail {
	if d <= 0 {
		return detail{name: name, unit: unit, note: "no samples"}
	}
	return detail{name: name, unit: unit, val: float64(n) / d.Seconds(), ok: true}
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of samples, which it
// sorts, and whether at least minBeyond samples lie strictly beyond its rank.
// A percentile with fewer samples beyond it is noise, not a tail, so callers
// report it as unreported together with the sample count.
func percentile(samples []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	beyond = n - 1 - rank
	return samples[rank], beyond, beyond >= minBeyond
}

func latencyDetail(name string, samples []float64, q float64) detail {
	v, beyond, ok := percentile(samples, q)
	d := detail{name: name, unit: "ms", val: v, ok: ok,
		note: fmt.Sprintf("n=%d, %d beyond", len(samples), beyond)}
	if !ok {
		d.note = fmt.Sprintf("n=%d leaves %d samples beyond p%g, need %d", len(samples), beyond, q*100, minBeyond)
	}
	return d
}

func failDetail(t *tally) detail {
	return detail{name: "fail_frac", unit: "ratio", val: float64(t.failed) / float64(max64(t.ops, 1)), ok: true,
		note: fmt.Sprintf("%d of %d ops", t.failed, t.ops)}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func scaled(n int, scale float64) int {
	m := int(float64(n) * scale)
	if m < 50 {
		m = 50
	}
	return m
}

// runWorkload sets the workload up setupRepeats times, runs the measured
// loop untraced, and in a traced run adds the traced pass.
func runWorkload(w *workloadDef, opt options) (*result, error) {
	ctx := context.Background()
	customers := scaled(w.customers, opt.scale)
	var setups []float64
	var r *rig
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
			r = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = newRig(ctx, w, customers, opt.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer r.close()

	// A traced run splits --seconds between the untraced loop and the
	// traced one.
	budget := opt.seconds
	if opt.trace {
		budget /= 2
	}
	var t *tally
	win, err := measure(func() error {
		var err error
		t, err = w.loop(ctx, r, loopCtl{budget: budget})
		return err
	})
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(median(setups), t, win)
	out := opt.stdout
	fmt.Fprintf(out, "# %s seed=%d customers=%d: %d ops, %d input rows, %.2fs measured, set-ups %.3v s\n",
		w.name, opt.seed, customers, t.ops, t.rows, t.active.Seconds(), setups)
	if rates := t.rates(); len(rates) > 0 {
		sort.Float64s(rates)
		fmt.Fprintf(out, "# rows/s over %d windows: min %.6g, median %.6g, max %.6g\n", len(rates), rates[0], median(rates), rates[len(rates)-1])
	}
	printMetrics(out, "e2e    ", e2e)
	for _, d := range w.details(t) {
		fmt.Fprintln(out, d)
	}
	fmt.Fprintln(out, failDetail(t))
	if w.after != nil {
		ds, err := w.after(ctx, r)
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			fmt.Fprintln(out, d)
		}
	}
	for _, e := range t.errs {
		fmt.Fprintf(out, "FAIL   %s\n", e)
	}
	res := &result{Correct: t.failed == 0, Attempted: max64(t.ops, 1), Failed: t.failed, Metrics: e2e}
	if !opt.trace {
		return res, nil
	}
	layers, tt, err := tracedPass(ctx, w, r, opt, t, win)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	res.Attempted += tt.ops
	res.Failed += tt.failed
	res.Correct = res.Failed == 0
	return res, nil
}
