package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/algo/dtree"
	"repro/internal/algo/nbayes"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rowset"
	"repro/internal/shape"
	"repro/internal/sqlengine"
)

// mineModel is one of the two copies of the paper's running-example model.
type mineModel struct {
	name  string // model name
	algo  string // USING service
	layer string // algorithm package, used in span and metric names
	// floor is the least share of customers whose true age must fall in the
	// predicted Age bucket.
	floor float64
}

var mineModels = []mineModel{
	{name: "Age Trees", algo: "Decision_Trees", layer: "dtree", floor: 0.45},
	{name: "Age Bayes", algo: "Naive_Bayes", layer: "nbayes", floor: 0.45},
}

func (m mineModel) create() string {
	return fmt.Sprintf(`CREATE MINING MODEL [%s] (
	[Customer ID] LONG KEY,
	[Gender] TEXT DISCRETE,
	[Hair Color] TEXT DISCRETE,
	[Age] DOUBLE DISCRETIZED PREDICT,
	[Product Purchases] TABLE(
		[Product Name] TEXT KEY,
		[Quantity] DOUBLE NORMAL CONTINUOUS,
		[Product Type] TEXT DISCRETE RELATED TO [Product Name])
) USING [%s]`, m.name, m.algo)
}

// mineSources are the two SELECTs inside the SHAPE statement; limit > 0
// restricts them to the first limit customers.
func mineSources(withAge bool, limit int) (parent, child string) {
	cols := "[Customer ID], [Gender], [Hair Color]"
	if withAge {
		cols += ", [Age]"
	}
	var pw, cw string
	if limit > 0 {
		pw = fmt.Sprintf(" WHERE [Customer ID] <= %d", limit)
		cw = fmt.Sprintf(" WHERE [CustID] <= %d", limit)
	}
	return fmt.Sprintf("SELECT %s FROM Customers%s ORDER BY [Customer ID]", cols, pw),
		fmt.Sprintf("SELECT [CustID], [Product Name], [Quantity], [Product Type] FROM Sales%s ORDER BY [CustID]", cw)
}

func mineShape(withAge bool, limit int) string {
	parent, child := mineSources(withAge, limit)
	return fmt.Sprintf("SHAPE {%s}\n\tAPPEND ({%s}\n\t\tRELATE [Customer ID] TO [CustID]) AS [Product Purchases]", parent, child)
}

func (m mineModel) insert(limit int) string {
	return fmt.Sprintf(`INSERT INTO [%s] ([Customer ID], [Gender], [Hair Color], [Age],
	[Product Purchases]([Product Name], [Quantity], [Product Type]))
%s`, m.name, mineShape(true, limit))
}

func (m mineModel) predict(limit int) string {
	return fmt.Sprintf(`SELECT t.[Customer ID], [%[1]s].[Age]
FROM [%[1]s] PREDICTION JOIN (%[2]s) AS t
ON [%[1]s].Gender = t.Gender AND [%[1]s].[Hair Color] = t.[Hair Color] AND
	[%[1]s].[Product Purchases].[Product Name] = t.[Product Purchases].[Product Name] AND
	[%[1]s].[Product Purchases].[Quantity] = t.[Product Purchases].[Quantity] AND
	[%[1]s].[Product Purchases].[Product Type] = t.[Product Purchases].[Product Type]`, m.name, mineShape(false, limit))
}

var mineBatch = &workloadDef{
	name:      "mine-batch",
	why:       "the paper's core operation: SHAPE caseset, INSERT INTO training under two algorithms, batch PREDICTION JOIN; loads shape/core/algo/provider, skips parse and wire",
	customers: 50000,
	prepare:   ensureMineModels,
	loop:      mineLoop,
	details: func(t *tally) []detail {
		return []detail{
			rate("train_cases_per_s", "cases/s", t.units["train_cases"], t.busy["train"]),
			rate("predict_cases_per_s", "cases/s", t.units["predict_cases"], t.busy["predict"]),
			{name: "bucket_accuracy", unit: "ratio", ok: t.units["scored"] > 0,
				val:  float64(t.units["in_bucket"]) / float64(max64(t.units["scored"], 1)),
				note: "share of scored customers whose true age is in the predicted bucket"},
		}
	},
	obsOverhead: mineObsOverhead,
}

// ensureMineModels creates the two (empty) models if the rig lacks them.
func ensureMineModels(ctx context.Context, r *rig) error {
	for _, m := range mineModels {
		if !r.p.IsModel(m.name) {
			if err := r.exec(ctx, m.create()); err != nil {
				return err
			}
		}
	}
	return nil
}

// mineLoop runs iterations of: retrain both models from scratch, then score
// every customer with each. One session, closed loop.
func mineLoop(ctx context.Context, r *rig, lc loopCtl) (*tally, error) {
	if err := ensureMineModels(ctx, r); err != nil {
		return nil, err
	}
	n := r.customers
	if lc.sample > 0 && lc.sample < n {
		n = lc.sample
	}
	t := newTally()
	first := map[string]uint64{} // model → hash of its first iteration's predictions
	for i := 0; lc.more(i, t.active); i++ {
		at := t.mark()
		for _, m := range mineModels {
			if err := r.exec(ctx, "DELETE FROM ["+m.name+"]"); err != nil {
				return nil, err
			}
			t0 := time.Now()
			rs, err := r.sess.Execute(ctx, m.insert(n))
			d := time.Since(t0)
			t.active += d
			if err != nil {
				t.ops++
				t.fail("train %s: %v", m.name, err)
				continue
			}
			cases, _ := rs.Row(0)[0].(int64)
			t.op("train", d, cases)
			t.units["train_cases"] += cases
			if cases != int64(n) {
				t.fail("train %s consumed %d cases, want %d", m.name, cases, n)
			}
			if lc.tr != nil {
				op := lc.tr.add(0, "op:train."+m.layer, t0, t0.Add(d), cases, false)
				rs0 := time.Now()
				if err := replayTrain(ctx, r, lc.tr, op, m, n); err != nil {
					return nil, err
				}
				t.replay += time.Since(rs0)
			}
		}
		for _, m := range mineModels {
			t0 := time.Now()
			rs, err := r.sess.Execute(ctx, m.predict(n))
			d := time.Since(t0)
			t.active += d
			if err != nil {
				t.ops++
				t.fail("predict %s: %v", m.name, err)
				continue
			}
			t.op("predict", d, int64(rs.Len()))
			t.units["predict_cases"] += int64(rs.Len())
			h, hits, err := checkPredictions(r, m, rs, n)
			t.units["in_bucket"] += int64(hits)
			t.units["scored"] += int64(rs.Len())
			if err != nil {
				t.fail("predict %s: %v", m.name, err)
			} else if h0, ok := first[m.name]; !ok {
				first[m.name] = h
			} else if h != h0 {
				t.fail("predict %s: iteration %d predictions differ from iteration 0", m.name, i)
			}
			if lc.tr != nil {
				op := lc.tr.add(0, "op:predict."+m.layer, t0, t0.Add(d), int64(rs.Len()), false)
				rs0 := time.Now()
				if err := replayPredict(ctx, r, lc.tr, op, m, n); err != nil {
					return nil, err
				}
				t.replay += time.Since(rs0)
			}
		}
		t.closeWindow(at)
	}
	return t, nil
}

// checkPredictions verifies one row per customer 1..n and that the true age
// falls in the predicted bucket for at least m.floor of them. It returns a
// hash of the predictions, for the across-iteration comparison, and how many
// true ages fell in their predicted bucket.
func checkPredictions(r *rig, m mineModel, rs *rowset.Rowset, n int) (uint64, int, error) {
	if rs.Len() != n {
		return 0, 0, fmt.Errorf("%d prediction rows, want %d", rs.Len(), n)
	}
	labels := make([]string, n+1)
	hits := 0
	for _, row := range rs.Rows() {
		id, ok := row[0].(int64)
		if !ok || id < 1 || id > int64(n) || labels[id] != "" {
			return 0, 0, fmt.Errorf("unexpected or repeated customer id %v", row[0])
		}
		label, _ := row[1].(string)
		if label == "" {
			return 0, 0, fmt.Errorf("customer %d has no predicted Age", id)
		}
		labels[id] = label
		if inBucket(label, r.truth.AgeOf[id]) {
			hits++
		}
	}
	if acc := float64(hits) / float64(n); acc < m.floor {
		return 0, hits, fmt.Errorf("bucket accuracy %.3f below floor %.2f", acc, m.floor)
	}
	h := fnv.New64a()
	for _, l := range labels[1:] {
		h.Write([]byte(l))
		h.Write([]byte{0})
	}
	return h.Sum64(), hits, nil
}

// inBucket reports whether age lies in a discretized bucket label of the
// forms "<= a", "> a" and "(a, b]".
func inBucket(label string, age float64) bool {
	switch {
	case strings.HasPrefix(label, "<= "):
		a, err := strconv.ParseFloat(label[3:], 64)
		return err == nil && age <= a
	case strings.HasPrefix(label, "> "):
		a, err := strconv.ParseFloat(label[2:], 64)
		return err == nil && age > a
	case strings.HasPrefix(label, "(") && strings.HasSuffix(label, "]"):
		lo, hi, ok := strings.Cut(label[1:len(label)-1], ", ")
		if !ok {
			return false
		}
		a, err1 := strconv.ParseFloat(lo, 64)
		b, err2 := strconv.ParseFloat(hi, 64)
		return err1 == nil && err2 == nil && age > a && age <= b
	}
	return false
}

// replayShape runs the statement's SHAPE through shape.ExecuteStringContext
// and its two source SELECTs through a fresh engine.
func replayShape(ctx context.Context, r *rig, tr *tracer, op int, withAge bool, n int) (*rowset.Rowset, error) {
	eng := sqlengine.NewEngine(r.p.DB)
	var rs *rowset.Rowset
	sid, err := tr.call(op, "shape", func() (int64, int64, error) {
		var err error
		if rs, err = shape.ExecuteStringContext(ctx, eng, mineShape(withAge, n)); err != nil {
			return 0, 0, err
		}
		return shapedRows(rs), 0, nil
	})
	if err != nil {
		return nil, err
	}
	parent, child := mineSources(withAge, n)
	_, err = tr.call(sid, "sqlengine.source", func() (int64, int64, error) {
		var rows int64
		for _, q := range []string{parent, child} {
			res, err := eng.ExecContext(ctx, q)
			if err != nil {
				return 0, 0, err
			}
			rows += int64(res.Len())
		}
		return rows, 0, nil
	})
	return rs, err
}

// shapedRows counts a SHAPE result's input rows: parent rows plus the rows
// of every nested table.
func shapedRows(rs *rowset.Rowset) int64 {
	n := int64(rs.Len())
	for c, col := range rs.Schema().Columns {
		if col.Type != rowset.TypeTable {
			continue
		}
		for _, row := range rs.Rows() {
			if nested, ok := row[c].(*rowset.Rowset); ok {
				n += int64(nested.Len())
			}
		}
	}
	return n
}

func algorithmFor(m mineModel) core.Algorithm {
	if m.layer == "nbayes" {
		return nbayes.New()
	}
	return dtree.New()
}

// replayTrain feeds a training statement's caseset through shape, the
// tokenizer and the algorithm's Train, using the trained model's attribute
// space so the cases carry the same Age buckets.
func replayTrain(ctx context.Context, r *rig, tr *tracer, op int, m mineModel, n int) error {
	rs, err := replayShape(ctx, r, tr, op, true, n)
	if err != nil {
		return err
	}
	model, err := r.p.Model(m.name)
	if err != nil {
		return err
	}
	var cs *core.Caseset
	if _, err := tr.call(op, "core.tokenize", func() (int64, int64, error) {
		tok := core.NewTokenizerWithSpace(model.Def, model.Space.Clone())
		var err error
		if cs, err = tok.Tokenize(rs); err != nil {
			return 0, 0, err
		}
		return int64(len(cs.Cases)), 0, nil
	}); err != nil {
		return err
	}
	_, err = tr.call(op, m.layer+".train", func() (int64, int64, error) {
		_, err := algorithmFor(m).Train(cs, cs.Space.Targets(), model.Def.Params)
		return int64(len(cs.Cases)), 0, err
	})
	return err
}

// replayPredict feeds a PREDICTION JOIN's input cases through shape, the
// frozen tokenizer and the trained model's Predict, case by case.
func replayPredict(ctx context.Context, r *rig, tr *tracer, op int, m mineModel, n int) error {
	rs, err := replayShape(ctx, r, tr, op, false, n)
	if err != nil {
		return err
	}
	model, err := r.p.Model(m.name)
	if err != nil {
		return err
	}
	cases, err := tokenizeCases(tr, op, model, rs)
	if err != nil {
		return err
	}
	return predictCases(tr, op, m.layer, model, cases)
}

// A PREDICTION JOIN binds and scores its cases on GOMAXPROCS workers, so the
// replays of those two steps fan out the same way to stay comparable with
// the statement's blocking path.

// tokenizeCases binds rows to the model through a frozen tokenizer.
func tokenizeCases(tr *tracer, op int, model *core.Model, rs *rowset.Rowset) ([]core.Case, error) {
	cases := make([]core.Case, rs.Len())
	_, err := tr.call(op, "core.tokenize", func() (int64, int64, error) {
		binder, err := core.NewFrozenTokenizer(model.Def, model.Space.Clone()).NewCaseBinder(rs.Schema())
		if err != nil {
			return 0, 0, err
		}
		rows := rs.Rows()
		err = par.ForEach(len(rows), runtime.GOMAXPROCS(0), func(i int) error {
			var err error
			cases[i], err = binder.TokenizeRow(rows[i])
			return err
		})
		return int64(len(cases)), 0, err
	})
	return cases, err
}

// predictCases runs the trained model's Predict on every case.
func predictCases(tr *tracer, op int, layer string, model *core.Model, cases []core.Case) error {
	target, ok := model.Space.Lookup("Age")
	if !ok {
		return fmt.Errorf("model %s has no Age attribute", model.Def.Name)
	}
	_, err := tr.call(op, layer+".predict", func() (int64, int64, error) {
		err := par.ForEach(len(cases), runtime.GOMAXPROCS(0), func(i int) error {
			_, err := model.Trained.Predict(cases[i], target)
			return err
		})
		return int64(len(cases)), 0, err
	})
	return err
}

// mineObsOverhead scores every customer with the Naive_Bayes model, with and
// without an observability registry.
func mineObsOverhead(ctx context.Context, customers int, seed int64) (float64, error) {
	m := mineModels[1]
	return twins(ctx, customers, seed, 3, func(x *rig) error {
		if err := ensureMineModels(ctx, x); err != nil {
			return err
		}
		return x.exec(ctx, m.insert(0))
	}, func(x *rig) error { return x.exec(ctx, m.predict(0)) })
}
