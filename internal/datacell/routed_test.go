package datacell

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/storage"
)

// rowsOf flattens the delivered relations of a query into sortable
// "a|b" strings (both projected columns are INTs in these tests; the
// implicit ts column is never projected, so routed and separate paths
// are comparable byte-for-byte).
func rowsOf(t *testing.T, rels []*storage.Relation) []string {
	t.Helper()
	var out []string
	for _, r := range rels {
		for i := 0; i < r.NumRows(); i++ {
			row := r.Row(i)
			s := ""
			for j, v := range row {
				if j > 0 {
					s += "|"
				}
				s += fmt.Sprint(v.I)
			}
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// rowsInOrder flattens delivered relations into "x|y" strings of their
// first two INT columns, in delivery order.
func rowsInOrder(rels []*storage.Relation) []string {
	var out []string
	for _, r := range rels {
		for i := 0; i < r.NumRows(); i++ {
			row := r.Row(i)
			out = append(out, fmt.Sprintf("%d|%d", row[0].I, row[1].I))
		}
	}
	return out
}

// TestRoutedMatchesSeparate is the flat-vs-shared equality property: N
// queries attached to one routed scan must deliver exactly the rows, in
// exactly the order, of N independent separate-strategy replicas. The
// mix covers every routing kind — equality (also flipped, and narrowed
// further by the rest of the predicate), range, residual, match-all and
// never — and a lagging SharedBaskets reader keeps a consumed prefix in
// the primary basket, so from the second firing on the scan reads its
// batch at a non-zero offset.
func TestRoutedMatchesSeparate(t *testing.T) {
	e, _ := newEngine(t)
	const nq = 8
	var texts []string
	for i := 0; i < nq; i++ {
		switch i % 3 {
		case 0: // equality, selective
			texts = append(texts, fmt.Sprintf("SELECT S.a, S.b FROM [SELECT * FROM R] AS S WHERE S.a = %d", i*10))
		case 1: // range
			texts = append(texts, fmt.Sprintf("SELECT S.a, S.b FROM [SELECT * FROM R] AS S WHERE S.a > %d AND S.a <= %d", i*5, i*5+20))
		default: // match-all
			texts = append(texts, "SELECT S.a, S.b FROM [SELECT * FROM R] AS S")
		}
	}
	for _, where := range []string{
		"S.a = 3 AND S.b > 40",       // eq anchor, narrower predicate
		"7 = S.a",                    // eq, flipped
		"S.b >= 30 AND S.a < 5",      // range anchor on b
		"S.a >= 2 AND S.b - S.a > 5", // range anchor, residual rest
		"S.a = 5 OR S.b > 150",       // residual
		"S.a <> 4",                   // residual (no anchor)
		"S.a > 3 AND S.a < 3",        // never
	} {
		texts = append(texts, "SELECT S.b, S.a FROM [SELECT * FROM R] AS S WHERE "+where)
	}
	var routed, flat []*Query
	for i, text := range texts {
		rq, err := e.RegisterContinuous(fmt.Sprintf("rq%d", i), text, WithStrategy(RoutedScan))
		if err != nil {
			t.Fatal(err)
		}
		if rq.Strategy != RoutedScan {
			t.Fatalf("rq%d: strategy = %s, want routed", i, rq.Strategy)
		}
		fq, err := e.RegisterContinuous(fmt.Sprintf("fq%d", i), text, WithStrategy(SeparateBaskets))
		if err != nil {
			t.Fatal(err)
		}
		routed, flat = append(routed, rq), append(flat, fq)
	}
	if _, err := e.RegisterContinuous("lag", "SELECT S.a FROM [SELECT * FROM R] AS S",
		WithStrategy(SharedBaskets), WithMinTuples(1000)); err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int64
	for v := int64(0); v < 120; v++ {
		pairs = append(pairs, [2]int64{v % 60, v})
	}
	ingestPairs(t, e, "R", pairs)
	ingestPairs(t, e, "R", [][2]int64{{10, 1000}, {10, 1001}, {59, 1002}})
	e.Drain()
	// Per-query stats must stay correct under sharing: every routed query
	// saw every batch (TuplesIn) but only matching tuples came out.
	st := routed[0].Stats() // WHERE S.a = 0
	if st.TuplesIn != 123 {
		t.Errorf("rq0 TuplesIn = %d, want 123", st.TuplesIn)
	}
	if st.TuplesOut != 2 { // a=0 occurs for v=0 and v=60
		t.Errorf("rq0 TuplesOut = %d, want 2", st.TuplesOut)
	}
	// Later batches, each drained on its own, are read behind the lagging
	// reader's retained prefix.
	v := int64(2000)
	for batch := 0; batch < 12; batch++ {
		pairs = pairs[:0]
		for k := 0; k < 1+batch*3; k++ {
			pairs = append(pairs, [2]int64{(v * 7) % 17, v})
			v++
		}
		ingestPairs(t, e, "R", pairs)
		e.Drain()
	}
	for i := range routed {
		got := rowsInOrder(collect(routed[i]))
		want := rowsInOrder(collect(flat[i]))
		if len(got) != len(want) {
			t.Fatalf("%s: routed %d rows, separate %d rows", texts[i], len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("%s row %d: routed %q, separate %q", texts[i], j, got[j], want[j])
			}
		}
	}
}

// TestRoutedSkipsNonMatching checks the predicate index actually short-
// circuits: a batch that cannot match an equality query's bucket must
// not evaluate that query's plan.
func TestRoutedSkipsNonMatching(t *testing.T) {
	e, _ := newEngine(t)
	hit, err := e.RegisterContinuous("hit",
		"SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 1", WithStrategy(RoutedScan))
	if err != nil {
		t.Fatal(err)
	}
	miss, err := e.RegisterContinuous("miss",
		"SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 999", WithStrategy(RoutedScan))
	if err != nil {
		t.Fatal(err)
	}
	if hit.routed.scan != miss.routed.scan {
		t.Fatal("queries on one stream should share one scan")
	}
	// Flush the pending overlay so the second batch routes precisely.
	ingestPairs(t, e, "R", [][2]int64{{5, 0}})
	e.Drain()
	base := miss.Stats().Firings
	ingestPairs(t, e, "R", [][2]int64{{1, 1}, {2, 2}})
	e.Drain()
	if got := miss.Stats().Firings - base; got != 0 {
		t.Errorf("miss fired %d times on a non-matching batch", got)
	}
	if got := hit.Stats().TuplesOut; got != 1 {
		t.Errorf("hit TuplesOut = %d, want 1", got)
	}
	if hit.routed.group == miss.routed.group {
		t.Error("different predicates must not share a plan group")
	}
}

// TestRoutedSharedGroupEvaluatesOnce: identical plans land in one group
// with a single evaluation per batch fanned out to both members.
func TestRoutedSharedGroupEvaluatesOnce(t *testing.T) {
	e, _ := newEngine(t)
	const text = "SELECT S.a, S.b FROM [SELECT * FROM R] AS S WHERE S.a > 3"
	q1, err := e.RegisterContinuous("g1", text, WithStrategy(RoutedScan))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.RegisterContinuous("g2", text, WithStrategy(RoutedScan))
	if err != nil {
		t.Fatal(err)
	}
	if q1.routed.group != q2.routed.group {
		t.Fatal("identical plans should share one group")
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 1}, {5, 2}, {7, 3}})
	e.Drain()
	if got := q1.routed.group.evals.Load(); got != 1 {
		t.Errorf("group evals = %d, want 1", got)
	}
	for _, q := range []*Query{q1, q2} {
		if rows := countRows(collect(q)); rows != 2 {
			t.Errorf("%s: %d rows, want 2", q.Name, rows)
		}
	}
}

// TestRoutedFallback: shapes the shared scan cannot serve (windows here)
// must degrade to the shared-basket arrangement, not fail.
func TestRoutedFallback(t *testing.T) {
	e, _ := newEngine(t)
	q, err := e.RegisterContinuous("w",
		"SELECT SUM(S.b) AS total FROM [SELECT * FROM R] AS S WINDOW ROWS 2 SLIDE 2",
		WithStrategy(RoutedScan))
	if err != nil {
		t.Fatal(err)
	}
	if q.routed != nil || q.Strategy == RoutedScan {
		t.Fatalf("windowed query must fall back, got strategy %s", q.Strategy)
	}
	ingestPairs(t, e, "R", [][2]int64{{1, 10}, {2, 20}})
	e.Drain()
	if rows := countRows(collect(q)); rows != 1 {
		t.Errorf("fallback query produced %d rows, want 1", rows)
	}
}

// TestRoutedWithLaggingSharedReader: when another shared reader on the
// primary basket retains a prefix the routed scan has already consumed
// (here a SharedBaskets query whose firing threshold keeps it from
// draining), UnseenLocked reports a non-zero offset and the scan must
// deliver exactly the unseen suffix — not re-deliver the retained prefix
// or overshoot the arrival watermark and silently drop later arrivals.
func TestRoutedWithLaggingSharedReader(t *testing.T) {
	e, _ := newEngine(t)
	rq, err := e.RegisterContinuous("rq",
		"SELECT S.a, S.b FROM [SELECT * FROM R] AS S", WithStrategy(RoutedScan))
	if err != nil {
		t.Fatal(err)
	}
	if rq.Strategy != RoutedScan {
		t.Fatalf("rq strategy = %s, want routed", rq.Strategy)
	}
	if _, err := e.RegisterContinuous("lag",
		"SELECT S.a, S.b FROM [SELECT * FROM R] AS S",
		WithStrategy(SharedBaskets), WithMinTuples(100)); err != nil {
		t.Fatal(err)
	}
	// One tuple per drained batch: from the second batch on, the lagging
	// reader's retained prefix makes the scan's offset grow every firing.
	const n = 5
	var want []string
	for v := int64(0); v < n; v++ {
		ingestPairs(t, e, "R", [][2]int64{{v, v * 10}})
		e.Drain()
		// Third field: the implicit arrival-ts column (manual clock, fixed).
		want = append(want, fmt.Sprintf("%d|%d|1000000", v, v*10))
	}
	got := rowsOf(t, collect(rq))
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("routed query got %d rows %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %q, want %q", i, got[i], want[i])
		}
	}
	if st := rq.Stats(); st.TuplesIn != n {
		t.Errorf("TuplesIn = %d, want %d", st.TuplesIn, n)
	}
}

// TestRoutedExplainAndShow: SHOW QUERIES and EXPLAIN ANALYZE must render
// per-query stats under sharing.
func TestRoutedExplainAndShow(t *testing.T) {
	e, _ := newEngine(t)
	if _, err := e.Exec(context.Background(),
		"CREATE CONTINUOUS QUERY cq WITH (strategy = routed) AS SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 2"); err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{2, 1}, {3, 2}})
	e.Drain()
	rel, err := e.Exec(context.Background(), "SHOW QUERIES")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < rel.NumRows(); i++ {
		row := rel.Row(i)
		if row[0].S == "cq" {
			found = true
			if row[1].S != "routed" {
				t.Errorf("SHOW QUERIES strategy = %q, want routed", row[1].S)
			}
		}
	}
	if !found {
		t.Fatal("cq missing from SHOW QUERIES")
	}
	rel, err = e.Exec(context.Background(), "EXPLAIN ANALYZE cq")
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]bool{}
	for i := 0; i < rel.NumRows(); i++ {
		ops[rel.Row(i)[0].S] = true
	}
	for _, want := range []string{"query", "stream", "scan", "route", "plan", "output"} {
		if !ops[want] {
			t.Errorf("EXPLAIN ANALYZE missing %q row (got %v)", want, ops)
		}
	}
	if _, err := e.Exec(context.Background(), "DROP CONTINUOUS QUERY cq"); err != nil {
		t.Fatal(err)
	}
}

// TestRoutedChurnUnderIngest is the -race register/drop churn test: the
// predicate index and the scan's membership change continuously while
// ingest keeps firing the shared scan.
func TestRoutedChurnUnderIngest(t *testing.T) {
	e, _ := newEngine(t)
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(context.Background())
	// One stable member keeps the scan alive through the churn.
	stable, err := e.RegisterContinuous("stable",
		"SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 7", WithStrategy(RoutedScan))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ingestPairs(t, e, "R", [][2]int64{{i % 16, i}, {7, i}})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("churn%d", i)
			text := fmt.Sprintf("SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = %d", i%16)
			if i%5 == 4 { // exercise group sharing under churn too
				text = "SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 7"
			}
			q, err := e.RegisterContinuous(name, text, WithStrategy(RoutedScan))
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				collect(q)
			}
			if err := e.UnregisterContinuous(name); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	// The churn may outpace the ingest goroutine entirely; a final
	// deterministic batch proves the scan survived the churn intact.
	ingestPairs(t, e, "R", [][2]int64{{7, -1}})
	e.Drain()
	if stable.Stats().TuplesOut == 0 {
		t.Error("stable query delivered nothing through the churn")
	}
	// Dropping the last member tears the scan down and a new registration
	// rebuilds it.
	if err := e.UnregisterContinuous("stable"); err != nil {
		t.Fatal(err)
	}
	q2, err := e.RegisterContinuous("rebuilt",
		"SELECT S.a FROM [SELECT * FROM R] AS S WHERE S.a = 3", WithStrategy(RoutedScan))
	if err != nil {
		t.Fatal(err)
	}
	ingestPairs(t, e, "R", [][2]int64{{3, 1}})
	e.Drain()
	if q2.Stats().TuplesOut != 1 {
		t.Errorf("rebuilt scan delivered %d tuples, want 1", q2.Stats().TuplesOut)
	}
}
