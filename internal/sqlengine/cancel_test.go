package sqlengine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/rowset"
	"repro/internal/storage"
)

// newBigEngine builds an engine with a single table of n rows, big enough
// that a self cross join produces n*n candidate rows.
func newBigEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := NewEngine(storage.NewDatabase())
	if _, err := e.Exec("CREATE TABLE Big (id LONG, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO Big VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'r%d')", i, i)
	}
	if _, err := e.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExecContextPreCancelledAbortsScan is the regression test for the
// uncancellable-scan bug: before the cancellation poll existed, a SELECT
// under an already-cancelled context ran the whole cross join to completion
// and returned its rowset with a nil error.
func TestExecContextPreCancelledAbortsScan(t *testing.T) {
	e := newBigEngine(t, 200)
	const q = "SELECT COUNT(*) FROM Big AS a, Big AS b WHERE a.id < b.id"

	// Sanity: the statement itself is valid and produces the expected count,
	// so the error below can only come from cancellation.
	rs, err := e.ExecContext(context.Background(), q)
	if err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	if got := rs.Row(0)[0]; got != int64(200*199/2) {
		t.Fatalf("count = %v", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCancelCursorStopsMidStream exercises the poll point directly: cancel
// after some rows have streamed and assert the cursor surfaces the
// cancellation within one poll interval instead of draining its source.
func TestCancelCursorStopsMidStream(t *testing.T) {
	e := newBigEngine(t, 300)
	rs := mustQuery(t, e, "SELECT * FROM Big")
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelCursor{src: rowset.BatchCursorOf(rs.Cursor()), ctx: ctx, done: ctx.Done()}
	defer c.Close() //nolint:errcheck

	if b, err := c.NextBatch(); err != nil || b.Len() == 0 {
		t.Fatalf("first window: %d rows, err %v", b.Len(), err)
	}
	cancel()
	// The next poll lands within pollEvery rows of the cancellation.
	rows := 0
	for rows <= pollEvery {
		b, err := c.NextBatch()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			return
		}
		if b.Empty() {
			t.Fatal("source drained before the cancellation was observed")
		}
		rows += b.Len()
	}
	t.Fatalf("no cancellation surfaced within %d rows", rows)
}

// TestCancelCursorBatchLatency is the batching regression test for
// cancellation latency: with a batch-capable source yielding
// DefaultBatchSize-row batches, the cancel cursor must still observe a
// cancellation within pollEvery rows — it doles upstream batches out in
// sub-batch windows and polls per window, instead of letting a 1024-row batch
// stretch the poll interval 16×.
func TestCancelCursorBatchLatency(t *testing.T) {
	e := newBigEngine(t, 4*int(rowset.DefaultBatchSize))
	rs := mustQuery(t, e, "SELECT * FROM Big")
	ctx, cancel := context.WithCancel(context.Background())
	c := &cancelCursor{src: rowset.BatchCursorOf(rs.Cursor()), ctx: ctx, done: ctx.Done()}
	defer c.Close() //nolint:errcheck

	// First pull: the upstream batch is DefaultBatchSize rows, but the window
	// handed downstream must not exceed the poll stride.
	b, err := c.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 || b.Len() > pollEvery {
		t.Fatalf("window = %d rows, want 1..%d", b.Len(), pollEvery)
	}
	cancel()
	// The very next pull starts with a poll, so at most one more window —
	// pollEvery rows — can flow after the cancellation.
	rows := 0
	for i := 0; i < 3; i++ {
		b, err = c.NextBatch()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if rows > pollEvery {
				t.Fatalf("%d rows flowed after cancellation, want <= %d", rows, pollEvery)
			}
			return
		}
		rows += b.Len()
	}
	t.Fatalf("no cancellation surfaced after %d rows", rows)
}

// TestCancelCursorBatchPreCancelled: a pre-cancelled context aborts the batch
// path before any row flows.
func TestCancelCursorBatchPreCancelled(t *testing.T) {
	e := newBigEngine(t, 100)
	rs := mustQuery(t, e, "SELECT * FROM Big")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &cancelCursor{src: rowset.BatchCursorOf(rs.Cursor()), ctx: ctx, done: ctx.Done()}
	defer c.Close() //nolint:errcheck
	if b, err := c.NextBatch(); !errors.Is(err, context.Canceled) || b.Len() != 0 {
		t.Fatalf("NextBatch = %d rows, err %v; want 0 rows and context.Canceled", b.Len(), err)
	}
}
