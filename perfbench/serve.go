package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/dmclient"
	"repro/internal/dmserver"
	"repro/internal/dmx"
	"repro/internal/obs"
	"repro/internal/plancache"
	"repro/internal/rowset"
	"repro/internal/sqlengine"
	"repro/internal/storage"
	"repro/internal/workload"
)

// serveConns is the number of client connections of serve-mixed.
const serveConns = 2

// maxReadsPerConn and maxWritesPerConn cap the ops a connection keeps (by
// reservoir sampling) for the traced pass's replays after its loop, so they
// stay bounded however fast the loop runs.
const (
	maxReadsPerConn  = 1500
	maxWritesPerConn = 25
)

// pointSelect is the prepared point query; pointSelectText the same query
// with the id spelled out, aliased so each text is unique.
const pointSelect = `SELECT [Customer ID], Gender, Age FROM Customers WHERE [Customer ID] = ?`

func pointSelectText(alias string, id int64) string {
	return fmt.Sprintf(`SELECT [Customer ID], Gender, Age FROM Customers AS %s WHERE [Customer ID] = %d`, alias, id)
}

var serveMixed = &workloadDef{
	name:      "serve-mixed",
	why:       "point reads (prediction, ad-hoc, prepared, $SYSTEM) and 5% writes from 2 wire connections; loads parse, plancache, storage index/stats, rowset codec, wire and obs",
	customers: 50000,
	prepare:   attachServe,
	loop:      serveLoop,
	details: func(t *tally) []detail {
		return []detail{
			rate("read_ops_per_s", "ops/s", int64(len(t.lat["read"])), t.active),
			latencyDetail("read_p50_ms", t.lat["read"], 0.50),
			latencyDetail("read_p99_ms", t.lat["read"], 0.99),
			latencyDetail("write_p50_ms", t.lat["write"], 0.50),
			latencyDetail("write_p95_ms", t.lat["write"], 0.95),
		}
	},
	after:       ungatedWrites,
	obsOverhead: serveObsOverhead,
}

// serveRig is the wire front end of a rig: an in-process dmserver on
// loopback and the client connections.
type serveRig struct {
	srv     *dmserver.Server
	served  chan error
	conns   []*dmclient.Client
	scratch *storage.Table // copy of Customers that traced writes are timed on
	// One op stream and expected state per connection; they persist across
	// the loops run on this rig, so a second loop never re-inserts an id.
	streams []*serveStream
	exp     []*expected
}

func (s *serveRig) close() {
	for _, c := range s.conns {
		c.Close() //nolint:errcheck // the server is going away too
	}
	s.srv.Close() //nolint:errcheck // closing the loopback listener
	<-s.served
}

// attachPoint makes a rig ready for point statements in process: the
// Customers id index, the trained [Load Model] and the prepared point query.
func attachPoint(ctx context.Context, r *rig) error {
	tbl, err := r.p.DB.Table("Customers")
	if err != nil {
		return err
	}
	if !tbl.HasIndex("Customer ID") {
		if err := tbl.CreateIndex("Customer ID"); err != nil {
			return err
		}
	}
	if !r.p.IsModel(workload.LoadModelName) {
		for _, stmt := range workload.LoadSetupStatements()[:2] {
			if err := r.exec(ctx, stmt); err != nil {
				return err
			}
		}
	}
	if _, err := r.sess.Prepare(ctx, "pt", pointSelect); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	return nil
}

// attachServe starts the server and connects the clients, each with the
// point query prepared.
func attachServe(ctx context.Context, r *rig) error {
	if r.serve != nil {
		return nil
	}
	if err := attachPoint(ctx, r); err != nil {
		return err
	}
	tbl, err := r.p.DB.Table("Customers")
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s := &serveRig{srv: dmserver.New(r.p), served: make(chan error, 1), scratch: storage.NewTable("Customers", tbl.Schema())}
	go func() { s.served <- s.srv.Serve(l) }()
	r.serve = s
	if err := s.scratch.CreateIndex("Customer ID"); err != nil {
		return err
	}
	for i := 0; i < serveConns; i++ {
		c, err := dmclient.New(l.Addr().String())
		if err != nil {
			return err
		}
		s.conns = append(s.conns, c)
		if _, err := c.Execute("PREPARE pt AS " + pointSelect); err != nil {
			return fmt.Errorf("prepare over the wire: %w", err)
		}
	}
	return nil
}

// serveOp is one generated operation.
type serveOp struct {
	kind   string // predict, adhoc, prepared, system, insert, update
	id     int64
	seq    int64 // position in the connection's stream; names ad-hoc aliases
	age    float64
	gender string
	hair   string
	system string
}

func (o serveOp) write() bool { return o.kind == "insert" || o.kind == "update" }

// text is the statement the op sends (prepared ops send arguments instead).
func (o serveOp) text(conn int) string {
	switch o.kind {
	case "predict":
		return workload.PredictStatement(int(o.id))
	case "adhoc":
		return pointSelectText(fmt.Sprintf("q%d_%d", conn, o.seq), o.id)
	case "prepared":
		return pointSelect
	case "system":
		return o.system
	case "insert":
		return fmt.Sprintf(`INSERT INTO Customers ([Customer ID], Gender, [Hair Color], Age, [Age Prob]) VALUES (%d, '%s', '%s', %.1f, 0.95)`,
			o.id, o.gender, o.hair, o.age)
	case "update":
		return fmt.Sprintf(`UPDATE Customers SET Age = %.1f WHERE [Customer ID] = %d`, o.age, o.id)
	}
	return ""
}

// writeEvery spaces the writes: each block of writeEvery ops holds exactly
// one write, at a random position, alternately an INSERT and an UPDATE, so
// every run writes the same 5% share. The reads are drawn by readWeights.
const writeEvery = 20

var readWeights = []struct {
	kind string
	w    int
}{{"predict", 70}, {"adhoc", 45}, {"prepared", 45}, {"system", 30}}

var systemReads = []string{
	"SELECT * FROM $SYSTEM.MINING_MODELS",
	"SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS",
	"SELECT * FROM $SYSTEM.MINING_COLUMNS",
}

// serveStream is connection conn's share of the seeded op stream. A
// connection reads and writes only the customers it owns — ids with
// (id-1) % conns == conn, and the ids it inserts — so every expected value is
// known without coordinating the connections.
type serveStream struct {
	rng      *rand.Rand
	conn     int
	conns    int
	owned    int64 // generated customers owned by this connection
	inserted []int64
	next     int64 // next insert id
	seq      int64 // ops generated so far
	writeAt  int64 // position of the current block's write
}

func newServeStream(seed int64, conn, conns, customers int) *serveStream {
	owned := int64(customers / conns)
	if conn < customers%conns {
		owned++
	}
	return &serveStream{
		rng:   rand.New(rand.NewSource(seed*7919 + int64(conn))),
		conn:  conn,
		conns: conns,
		owned: owned,
		next:  int64(customers + 1 + conn),
	}
}

func (s *serveStream) pick() int64 {
	j := s.rng.Int63n(s.owned + int64(len(s.inserted)))
	if j < s.owned {
		return j*int64(s.conns) + int64(s.conn) + 1
	}
	return s.inserted[j-s.owned]
}

// op returns the next op of the stream.
func (s *serveStream) op() serveOp {
	if s.seq%writeEvery == 0 {
		s.writeAt = s.seq + s.rng.Int63n(writeEvery)
	}
	kind := "update"
	if s.seq == s.writeAt {
		if (s.seq/writeEvery)%2 == 0 {
			kind = "insert"
		}
	} else {
		total := 0
		for _, w := range readWeights {
			total += w.w
		}
		n := s.rng.Intn(total)
		for _, w := range readWeights {
			if n < w.w {
				kind = w.kind
				break
			}
			n -= w.w
		}
	}
	o := serveOp{kind: kind, seq: s.seq}
	s.seq++
	switch kind {
	case "system":
		o.system = systemReads[s.rng.Intn(len(systemReads))]
	case "insert":
		o.id = s.next
		s.next += int64(s.conns)
		s.inserted = append(s.inserted, o.id)
		o.gender, o.hair = genders[s.rng.Intn(2)], hairs[s.rng.Intn(4)]
		o.age = float64(180+s.rng.Intn(600)) / 10
	case "update":
		o.id = s.pick()
		o.age = float64(180+s.rng.Intn(600)) / 10
	default:
		o.id = s.pick()
	}
	return o
}

// expected tracks what a connection's customers should read back as.
type expected struct {
	truth   *workload.Truth
	written map[int64]customerVal
	predict map[string]string // gender → predicted Age label
}

type customerVal struct {
	gender string
	age    float64
}

func (e *expected) of(id int64) (customerVal, bool) {
	if v, ok := e.written[id]; ok {
		return v, true
	}
	g, ok := e.truth.GenderOf[id]
	return customerVal{gender: g, age: e.truth.AgeOf[id]}, ok
}

// check verifies one op's result and records writes.
func (e *expected) check(o serveOp, rs *rowset.Rowset) error {
	switch o.kind {
	case "adhoc", "prepared":
		want, _ := e.of(o.id)
		if rs.Len() != 1 {
			return fmt.Errorf("%d rows for customer %d", rs.Len(), o.id)
		}
		row := rs.Row(0)
		if num(row[0]) != float64(o.id) || row[1] != want.gender || num(row[2]) != want.age {
			return fmt.Errorf("customer %d read %v, want %s %v", o.id, row, want.gender, want.age)
		}
	case "predict":
		want, _ := e.of(o.id)
		if rs.Len() != 1 || num(rs.Row(0)[0]) != float64(o.id) {
			return fmt.Errorf("prediction for customer %d returned %d rows", o.id, rs.Len())
		}
		label, _ := rs.Row(0)[1].(string)
		if prev, ok := e.predict[want.gender]; label == "" || (ok && prev != label) {
			return fmt.Errorf("prediction for customer %d (%s) is %q, earlier %q", o.id, want.gender, label, prev)
		}
		e.predict[want.gender] = label
	case "system":
		if rs.Len() == 0 {
			return fmt.Errorf("%s returned no rows", o.system)
		}
	case "insert":
		e.written[o.id] = customerVal{gender: o.gender, age: o.age}
	case "update":
		v, _ := e.of(o.id)
		v.age = o.age
		e.written[o.id] = v
	}
	return nil
}

// opRecord is a traced op kept for replay.
type opRecord struct {
	conn  int
	op    serveOp
	start time.Time
	dur   time.Duration
	rs    *rowset.Rowset // a read's result
}

// reservoir keeps a uniform sample of at most max records.
type reservoir struct {
	max  int
	kept []opRecord
	seen int
	rng  *rand.Rand
}

func (rv *reservoir) add(rec opRecord) {
	rv.seen++
	if len(rv.kept) < rv.max {
		rv.kept = append(rv.kept, rec)
		return
	}
	if j := rv.rng.Intn(rv.seen); j < rv.max {
		rv.kept[j] = rec
	}
}

// connRun is one connection's share of a serve loop.
type connRun struct {
	t             *tally
	exp           *expected
	reads, writes reservoir
	// perSecond counts the ops completed in each second of the loop.
	perSecond []int64
}

func execOp(c *dmclient.Client, o serveOp, conn int) (*rowset.Rowset, error) {
	if o.kind == "prepared" {
		return c.ExecutePrepared("pt", o.id)
	}
	return c.Execute(o.text(conn))
}

// serveLoop runs the two connections' closed loops over the wire.
func serveLoop(ctx context.Context, r *rig, lc loopCtl) (*tally, error) {
	if err := attachServe(ctx, r); err != nil {
		return nil, err
	}
	tbl, err := r.p.DB.Table("Customers")
	if err != nil {
		return nil, err
	}
	reg := r.p.Obs()
	hits, misses, inval := reg.Counter(obs.MetricPlanCacheHits), reg.Counter(obs.MetricPlanCacheMisses), reg.Counter(obs.MetricPlanCacheInvalidations)
	h0, m0, i0 := hits.Value(), misses.Value(), inval.Value()
	// gate lets one write run at a time. UPDATE rewrites the whole table
	// from a copy taken when it starts (sqlengine execUpdate, storage
	// Table.Replace), so two overlapping writes lose one of them. That is a
	// known defect of the program (see README); the measured loop runs one
	// writer at a time, a write's latency includes its wait for the gate,
	// and reads are not gated. ungatedWrites measures the defect after the
	// loop.
	var gate sync.Mutex
	runs := make([]*connRun, serveConns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		rng := rand.New(rand.NewSource(r.seed + int64(c)))
		runs[c] = &connRun{t: newTally(), exp: r.expectations(c),
			reads: reservoir{max: maxReadsPerConn, rng: rng}, writes: reservoir{max: maxWritesPerConn, rng: rng}}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runConn(r, lc, &gate, c, runs[c], start)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	t := newTally()
	for _, cr := range runs {
		t.merge(cr.t)
	}
	t.active = wall
	// One-second windows of completed ops, both connections together; the
	// last, partial second is left out.
	for s := 0; s < int(wall/time.Second); s++ {
		var n int64
		for _, cr := range runs {
			if s < len(cr.perSecond) {
				n += cr.perSecond[s]
			}
		}
		t.windows = append(t.windows, window{rows: n, dur: time.Second})
	}
	t.units["plan_hits"] = hits.Value() - h0
	t.units["plan_misses"] = misses.Value() - m0
	t.units["plan_invalidations"] = inval.Value() - i0
	t.units["writes"] = int64(len(t.lat["write"]))

	// Read back every written customer, outside the measured loop.
	for c, cr := range runs {
		for id, want := range cr.exp.written {
			rs, err := r.serve.conns[c].ExecutePrepared("pt", id)
			if err == nil && (rs.Len() != 1 || rs.Row(0)[1] != want.gender || num(rs.Row(0)[2]) != want.age) {
				err = fmt.Errorf("reads back %v, want %s %v", rs.Rows(), want.gender, want.age)
			}
			if err != nil {
				t.fail("written customer %d: %v", id, err)
			}
		}
	}
	if lc.tr != nil {
		t0 := time.Now()
		snap := tbl.Snapshot()
		for _, cr := range runs {
			for _, rec := range cr.writes.kept {
				if err := traceWrite(lc.tr, r.serve.scratch, snap, rec); err != nil {
					return nil, err
				}
			}
			for _, rec := range cr.reads.kept {
				if err := replayRead(ctx, r, lc.tr, rec); err != nil {
					return nil, err
				}
			}
		}
		t.replay += time.Since(t0)
	}
	return t, nil
}

// expectations returns connection c's expected state, creating the
// connections' streams and expectations on the rig's first loop.
func (r *rig) expectations(c int) *expected {
	s := r.serve
	if s.exp == nil {
		for i := 0; i < serveConns; i++ {
			s.exp = append(s.exp, &expected{truth: r.truth, written: map[int64]customerVal{}, predict: map[string]string{}})
			s.streams = append(s.streams, newServeStream(r.seed, i, serveConns, r.customers))
		}
	}
	return s.exp[c]
}

func runConn(r *rig, lc loopCtl, gate *sync.Mutex, c int, cr *connRun, start time.Time) {
	client, st := r.serve.conns[c], r.serve.streams[c]
	per := loopCtl{budget: lc.budget, iters: lc.iters / serveConns}
	if lc.iters > 0 && per.iters == 0 {
		per.iters = 1
	}
	for i := 0; per.more(i, time.Since(start)); i++ {
		o := st.op()
		cls := "read"
		t0 := time.Now()
		if o.write() {
			cls = "write"
			gate.Lock()
		}
		rs, err := execOp(client, o, c)
		d := time.Since(t0)
		if o.write() {
			gate.Unlock()
		}
		if err != nil {
			cr.t.ops++
			cr.t.fail("%s customer %d: %v", o.kind, o.id, err)
			continue
		}
		cr.t.op(cls, d, 1)
		cr.tick(start)
		if err := cr.exp.check(o, rs); err != nil {
			cr.t.fail("%s: %v", o.kind, err)
		}
		if lc.tr != nil {
			if o.write() {
				cr.writes.add(opRecord{conn: c, op: o, start: t0, dur: d})
			} else {
				cr.reads.add(opRecord{conn: c, op: o, start: t0, dur: d, rs: rs})
			}
		}
	}
}

// tick counts one completed op in the current second of the loop.
func (cr *connRun) tick(start time.Time) {
	s := int(time.Since(start) / time.Second)
	for len(cr.perSecond) <= s {
		cr.perSecond = append(cr.perSecond, 0)
	}
	cr.perSecond[s]++
}

// traceWrite records a write op kept by the traced loop. Writes are never
// replayed against the live table, and the live table's Stats() cache is left
// alone, so reads in the loop pay the recompute as they do untraced. Instead
// the scratch table takes snap, the Customers rows after the loop (without
// the new row, for an insert, which is then replayed into it), and the
// follow-ups time the Stats() recompute a write forces on the next read and
// the warm Stats() after it.
func traceWrite(tr *tracer, scratch *storage.Table, snap []rowset.Row, rec opRecord) error {
	o := rec.op
	op := tr.add(0, "op:write."+o.kind, rec.start, rec.start.Add(rec.dur), 1, false)
	rows := snap
	if o.kind == "insert" {
		rows = make([]rowset.Row, 0, len(snap))
		for _, row := range snap {
			if num(row[0]) != float64(o.id) {
				rows = append(rows, row)
			}
		}
	}
	if err := scratch.Replace(rows); err != nil {
		return err
	}
	if o.kind == "insert" {
		if _, err := tr.call(op, "storage.insert", func() (int64, int64, error) {
			return 1, 0, scratch.Insert(rowset.Row{o.id, o.gender, o.hair, o.age, 0.95})
		}); err != nil {
			return err
		}
	}
	for _, name := range []string{"storage.stats_after_write", "storage.stats_warm"} {
		if _, err := tr.follow(op, name, func() (int64, int64, error) {
			return int64(scratch.Stats().Rows), 0, nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// ungatedPerConn is how many writes each connection sends in the ungated
// phase.
const ungatedPerConn = 20

// ungatedWrites runs after the measured loop: both connections write at
// once, without the gate, to rows only they touch (each inserts a new
// customer and then updates its Age, ungatedPerConn/2 times), then every
// such row is read back. A row that is missing or has its old Age lost a
// write to the overlapping-writes defect (see the gate in serveLoop). The count is reported,
// not failed on, so a fix or a regression shows; the rows are deleted
// afterwards, leaving the connections' own customers as they were.
func ungatedWrites(ctx context.Context, r *rig) ([]detail, error) {
	base := int64(r.customers) * 1000
	want := make([]map[int64]float64, serveConns)
	errs := make([]int, serveConns)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		want[c] = map[int64]float64{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*31 + int64(c)))
			for k := 0; k < ungatedPerConn/2; k++ {
				id := base + int64(c*ungatedPerConn+k)
				age := float64(180+rng.Intn(600)) / 10
				o := serveOp{kind: "insert", id: id, gender: genders[rng.Intn(2)], hair: hairs[rng.Intn(4)], age: age}
				if _, err := r.serve.conns[c].Execute(o.text(c)); err != nil {
					errs[c]++
				}
				o = serveOp{kind: "update", id: id, age: age + 1}
				if _, err := r.serve.conns[c].Execute(o.text(c)); err != nil {
					errs[c]++
				}
				want[c][id] = age + 1
			}
		}(c)
	}
	wg.Wait()
	lost, failed, rows := 0, 0, 0
	for c := range want {
		failed += errs[c]
		for id, age := range want[c] {
			rows++
			rs, err := r.serve.conns[c].ExecutePrepared("pt", id)
			if err != nil {
				return nil, fmt.Errorf("ungated read-back of customer %d: %w", id, err)
			}
			if rs.Len() != 1 || num(rs.Row(0)[2]) != age {
				lost++
			}
		}
	}
	if _, err := r.serve.conns[0].Execute(fmt.Sprintf(`DELETE FROM Customers WHERE [Customer ID] >= %d`, base)); err != nil {
		return nil, fmt.Errorf("ungated clean-up: %w", err)
	}
	return []detail{{name: "ungated_lost_writes", unit: "rows", val: float64(lost), ok: true,
		note: fmt.Sprintf("of %d rows written by %d connections at once, %d statements refused", rows, serveConns, failed)}}, nil
}

// replayRead replays a read op in process and through the layers under it:
// the provider statement, normalize, parse, engine execution with its index
// probe, and for predictions the tokenizer and the model; then the codec on
// the op's result.
func replayRead(ctx context.Context, r *rig, tr *tracer, rec opRecord) error {
	o := rec.op
	op := tr.add(0, "op:read."+o.kind, rec.start, rec.start.Add(rec.dur), 1, false)
	text := o.text(rec.conn)
	if o.kind == "adhoc" {
		text = pointSelectText(fmt.Sprintf("r%d_%d", rec.conn, o.seq), o.id)
	}
	kind := "point"
	switch o.kind {
	case "predict", "system":
		kind = o.kind
	}
	pe, err := tr.call(op, "provider.exec."+kind, func() (int64, int64, error) {
		var err error
		if o.kind == "prepared" {
			_, err = r.sess.ExecutePrepared(ctx, "pt", []rowset.Value{o.id})
		} else {
			_, err = r.sess.Execute(ctx, text)
		}
		return 1, 0, err
	})
	if err != nil {
		return err
	}
	if _, err := tr.call(pe, "plancache.normalize", func() (int64, int64, error) {
		plancache.Normalize(text)
		return 1, 0, nil
	}); err != nil {
		return err
	}
	switch o.kind {
	case "predict":
		if _, err := tr.call(pe, "dmx.parse", func() (int64, int64, error) {
			_, err := dmx.Parse(text, r.p.IsModel)
			return 1, 0, err
		}); err != nil {
			return err
		}
		src, err := pointExec(ctx, r, tr, pe, fmt.Sprintf(`SELECT [Customer ID], Gender FROM Customers WHERE [Customer ID] = %d`, o.id), o.id)
		if err != nil {
			return err
		}
		model, err := r.p.Model(workload.LoadModelName)
		if err != nil {
			return err
		}
		cases, err := tokenizeCases(tr, pe, model, src)
		if err != nil {
			return err
		}
		if err := predictCases(tr, pe, "dtree", model, cases); err != nil {
			return err
		}
	case "adhoc", "prepared":
		if _, err := tr.call(pe, "sqlengine.parse", func() (int64, int64, error) {
			_, err := sqlengine.Parse(text)
			return 1, 0, err
		}); err != nil {
			return err
		}
		if _, err := pointExec(ctx, r, tr, pe, pointSelectText("p", o.id), o.id); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if _, err := tr.call(op, "rowset.encode", func() (int64, int64, error) {
		err := rec.rs.Encode(&buf)
		return int64(rec.rs.Len()), int64(buf.Len()), err
	}); err != nil {
		return err
	}
	_, err = tr.call(op, "rowset.decode", func() (int64, int64, error) {
		rs, err := rowset.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return 0, 0, err
		}
		return int64(rs.Len()), int64(buf.Len()), nil
	})
	return err
}

// pointExec runs a point query on a fresh engine, with the index probe it
// rests on replayed beneath it.
func pointExec(ctx context.Context, r *rig, tr *tracer, parent int, text string, id int64) (*rowset.Rowset, error) {
	var rs *rowset.Rowset
	eid, err := tr.call(parent, "sqlengine.exec.point", func() (int64, int64, error) {
		var err error
		rs, err = sqlengine.NewEngine(r.p.DB).ExecContext(ctx, text)
		if err != nil {
			return 0, 0, err
		}
		return int64(rs.Len()), 0, nil
	})
	if err != nil {
		return nil, err
	}
	tbl, err := r.p.DB.Table("Customers")
	if err != nil {
		return nil, err
	}
	_, err = tr.call(eid, "storage.index_probe", func() (int64, int64, error) {
		rows, err := tbl.LookupEqualRows("Customer ID", id)
		return int64(len(rows)), 0, err
	})
	return rs, err
}

// serveObsOverhead runs in-process point selects and predictions with and
// without an observability registry.
func serveObsOverhead(ctx context.Context, customers int, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, 2000)
	for i := range ids {
		ids[i] = 1 + rng.Int63n(int64(customers))
	}
	return twins(ctx, customers, seed, 7, func(x *rig) error { return attachPoint(ctx, x) }, func(x *rig) error {
		for _, id := range ids {
			if _, err := x.sess.ExecutePrepared(ctx, "pt", []rowset.Value{id}); err != nil {
				return err
			}
			if err := x.exec(ctx, workload.PredictStatement(int(id))); err != nil {
				return err
			}
		}
		return nil
	})
}
