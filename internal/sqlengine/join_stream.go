package sqlengine

// Streaming join operators. Both preserve the exact output order of the old
// materialized join (left-major: left rows in their scan order, each
// followed by its matches in right scan order) so results stay byte-identical:
//
//   - probeJoin: materializes the right input once — hashed on its key for an
//     equi-join, as a plain row list for cross joins and general ON
//     expressions — and streams left batches through it. The probe side
//     never materializes.
//   - hashJoinBuildLeft: equi-join that builds over the LEFT input when the
//     planner knows it is the smaller side. Building left while emitting
//     left-major forces full materialization, so this strategy is chosen only
//     when the build-side saving (a smaller hash table) is known, not
//     guessed.

import (
	"repro/internal/par"
	"repro/internal/rowset"
	"repro/internal/storage"
)

// joinStrategy is the planner's choice of operator for one FROM step.
type joinStrategy int

const (
	joinBuildRight joinStrategy = iota // probeJoin, hashed right side
	joinBuildLeft                      // hashJoinBuildLeft
	joinLoop                           // probeJoin, ON evaluated per pair
)

// newJoinCursor builds the operator jp chose over left and right. Both inputs
// are owned by the returned cursor (closed on Close or exhaustion). The size
// hints preallocate the side that is materialized.
func newJoinCursor(left, right rowset.BatchCursor, jp *joinPlan, leftHint, rightHint, workers int) rowset.BatchCursor {
	leftOuter := jp.kind == JoinLeft
	switch jp.strategy {
	case joinBuildLeft:
		return &hashJoinBuildLeft{
			left: left, right: right, schema: jp.schema,
			lo: jp.lo, ro: jp.ro, leftOuter: leftOuter,
			leftHint: leftHint, workers: workers,
		}
	case joinBuildRight:
		return &probeJoin{
			left: left, right: right, schema: jp.schema,
			hashed: true, lo: jp.lo, ro: jp.ro, leftOuter: leftOuter,
			nullRight: make(rowset.Row, right.Schema().Len()),
			rightHint: rightHint, workers: workers,
		}
	}
	pj := &probeJoin{
		left: left, right: right, schema: jp.schema,
		nullRight: make(rowset.Row, right.Schema().Len()),
		rightHint: rightHint,
	}
	if jp.kind != JoinCross {
		pj.on = jp.on
		pj.env = &Env{Schema: jp.schema}
		pj.leftOuter = leftOuter
	}
	return pj
}

// joinRows concatenates a left and right half into one output row.
func joinRows(l, r rowset.Row) rowset.Row {
	row := make(rowset.Row, 0, len(l)+len(r))
	row = append(row, l...)
	return append(row, r...)
}

// probeJoin drains the right side on first pull, then streams left rows
// through it. A hashed join looks each left key up in a hash table over the
// right rows (NULL keys never match, SQL equi-join semantics); otherwise
// every right row is a candidate, kept when on (nil for a cross join)
// evaluates TRUE. Output batches stop at DefaultBatchSize rows, resuming
// mid-left-row on the next pull, so a cross join's output never piles up in
// one batch.
type probeJoin struct {
	left, right rowset.BatchCursor
	schema      *rowset.Schema
	leftOuter   bool
	nullRight   rowset.Row
	rightHint   int // preallocation for the drained right side

	hashed  bool
	lo, ro  int
	workers int // parallel key workers for the hash build (0 = sequential)
	ht      map[string][]rowset.Row
	scratch []byte

	on    Expr
	env   *Env
	probe rowset.Row

	built     bool
	rightRows []rowset.Row

	// Resume point: the current left batch (held until its rows are all
	// joined; the left side is not pulled again before then), the left row
	// within it, that row's candidates and the next candidate to try.
	lb      rowset.Batch
	li      int
	cands   []rowset.Row
	ci      int
	matched bool
	outBuf  []rowset.Row
}

func (j *probeJoin) build() error {
	rows, _, err := drainRows(j.right, j.rightHint)
	if err != nil {
		return err
	}
	j.built = true
	if !j.hashed {
		j.rightRows = rows
		j.probe = make(rowset.Row, 0, j.schema.Len())
		return nil
	}
	keys := buildKeys(rows, j.ro, j.workers)
	j.ht = make(map[string][]rowset.Row, len(rows))
	for i, r := range rows {
		if r[j.ro] == nil {
			continue // NULL never matches in an equi-join
		}
		j.ht[keys[i]] = append(j.ht[keys[i]], r)
	}
	return nil
}

// parallelKeyMin is the build-side row count below which computing hash keys
// on parallel workers costs more than it saves.
const parallelKeyMin = 4096

// buildKeys precomputes each row's join key ("" for NULL, which the insert
// loops skip). Key rendering is the CPU-bound part of a hash-join build, so
// large build sides compute keys on parallel workers over contiguous ranges;
// the hash-table INSERTION afterward stays sequential in row order, keeping
// bucket order — and therefore probe output order — identical to a
// sequential build.
func buildKeys(rows []rowset.Row, ord, workers int) []string {
	keys := make([]string, len(rows))
	fill := func(lo, hi int) {
		var scratch []byte
		for i := lo; i < hi; i++ {
			if v := rows[i][ord]; v != nil {
				scratch = rowset.AppendKey(scratch[:0], v)
				keys[i] = string(scratch)
			}
		}
	}
	if workers > 1 && len(rows) >= parallelKeyMin {
		ms := storage.MorselRanges(len(rows), 0)
		// fn never returns an error, so neither does ForEach.
		_ = par.ForEach(len(ms), workers, func(mi int) error {
			fill(ms[mi].Lo, ms[mi].Hi)
			return nil
		})
		return keys
	}
	fill(0, len(rows))
	return keys
}

// candidates returns the right rows left row l may join with.
func (j *probeJoin) candidates(l rowset.Row) []rowset.Row {
	if !j.hashed {
		return j.rightRows
	}
	if l[j.lo] == nil {
		return nil
	}
	// map[string(bytes)] probes compile without materializing the key.
	return j.ht[string(rowset.AppendKey(j.scratch[:0], l[j.lo]))]
}

// NextBatch joins left rows into a reused output buffer until it holds a
// batch's worth. The joined rows themselves are freshly allocated (they are
// result rows, retained by consumers).
func (j *probeJoin) NextBatch() (rowset.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return rowset.Batch{}, err
		}
	}
	out := j.outBuf[:0]
	for len(out) < rowset.DefaultBatchSize {
		if j.li >= j.lb.Len() {
			b, err := j.left.NextBatch()
			if err != nil {
				return rowset.Batch{}, err
			}
			if b.Empty() {
				break
			}
			j.lb, j.li = b, 0
			j.cands, j.ci, j.matched = j.candidates(b.Row(0)), 0, false
		}
		l := j.lb.Row(j.li)
		for j.ci < len(j.cands) && len(out) < rowset.DefaultBatchSize {
			r := j.cands[j.ci]
			j.ci++
			if j.on != nil {
				j.probe = append(append(j.probe[:0], l...), r...)
				j.env.Row = j.probe
				ok, err := evalCond(j.on, j.env)
				if err != nil {
					return rowset.Batch{}, err
				}
				if !ok {
					continue
				}
			}
			j.matched = true
			out = append(out, joinRows(l, r))
		}
		if j.ci < len(j.cands) {
			break // output full mid-row: resume here on the next pull
		}
		if !j.matched && j.leftOuter {
			out = append(out, joinRows(l, j.nullRight))
		}
		if j.li++; j.li < j.lb.Len() {
			j.cands, j.ci, j.matched = j.candidates(j.lb.Row(j.li)), 0, false
		}
	}
	j.outBuf = out
	if len(out) == 0 {
		return rowset.Batch{}, nil
	}
	return rowset.Batch{Rows: out}, nil
}

func (j *probeJoin) Schema() *rowset.Schema { return j.schema }

func (j *probeJoin) Close() error {
	j.ht, j.rightRows, j.cands, j.lb = nil, nil, nil, rowset.Batch{}
	err := j.left.Close()
	if rerr := j.right.Close(); err == nil {
		err = rerr
	}
	return err
}

// hashJoinBuildLeft builds the hash table over the left (smaller) side,
// mapping keys to left row positions, then drains the right side once,
// collecting each left row's matches. Output is emitted left-major afterward,
// so the result order is identical to probing left-to-right.
type hashJoinBuildLeft struct {
	left, right rowset.BatchCursor
	schema      *rowset.Schema
	lo, ro      int
	leftOuter   bool
	leftHint    int // preallocation for the drained left side
	workers     int // parallel key workers for the build side (0 = sequential)

	out []rowset.Row
	oi  int
	ran bool
}

func (j *hashJoinBuildLeft) run() error {
	j.ran = true
	leftRows, _, err := drainRows(j.left, j.leftHint)
	if err != nil {
		return err
	}
	keys := buildKeys(leftRows, j.lo, j.workers)
	ht := make(map[string][]int, len(leftRows))
	for i, l := range leftRows {
		if l[j.lo] == nil {
			continue // NULL never matches
		}
		ht[keys[i]] = append(ht[keys[i]], i)
	}
	matches := make([][]rowset.Row, len(leftRows))
	var scratch []byte
	_, err = drain(j.right, func(b rowset.Batch) error {
		for i, n := 0, b.Len(); i < n; i++ {
			r := b.Row(i)
			if r[j.ro] == nil {
				continue
			}
			for _, li := range ht[string(rowset.AppendKey(scratch[:0], r[j.ro]))] {
				matches[li] = append(matches[li], r)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var nullRight rowset.Row
	if j.leftOuter {
		nullRight = make(rowset.Row, j.right.Schema().Len())
	}
	for i, l := range leftRows {
		if len(matches[i]) == 0 {
			if j.leftOuter {
				j.out = append(j.out, joinRows(l, nullRight))
			}
			continue
		}
		for _, r := range matches[i] {
			j.out = append(j.out, joinRows(l, r))
		}
	}
	return nil
}

// NextBatch streams the materialized output in zero-copy windows.
func (j *hashJoinBuildLeft) NextBatch() (rowset.Batch, error) {
	if !j.ran {
		if err := j.run(); err != nil {
			return rowset.Batch{}, err
		}
	}
	if j.oi >= len(j.out) {
		return rowset.Batch{}, nil
	}
	hi := min(j.oi+rowset.DefaultBatchSize, len(j.out))
	b := rowset.Batch{Rows: j.out[j.oi:hi]}
	j.oi = hi
	return b, nil
}

func (j *hashJoinBuildLeft) Schema() *rowset.Schema { return j.schema }

func (j *hashJoinBuildLeft) Close() error {
	j.oi, j.out = 0, nil
	err := j.left.Close()
	if rerr := j.right.Close(); err == nil {
		err = rerr
	}
	return err
}
