package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	datacell "repro"
	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/route"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

// filter_fanout is the paper's many-subscribers shape: one stream of
// trades and some six hundred routed filter queries, all subscribed. It
// loads the route index, factory select/project, output baskets and
// subscription delivery; it bypasses the WAL, partitioning and windows.
//
// The engine's 5 ms window-flush tick wakes every subscription, so its
// cost grows with the query count whatever the input rate, and a result
// that falls due during one waits for it. At 2.6k queries that tick
// alone kept more than one of two CPUs busy at the light rate; at 1k it
// delayed about a tenth of the heavy-rate results, so p90 sat on the
// edge of that tail and moved by a third between runs. At six hundred
// the tail is about a twentieth and p90 measures the fan-out.
const (
	ffSymbols  = 1000 // distinct symbols, zipf-skewed in the input
	ffEq       = 560  // sym = const: equality buckets
	ffRange    = 30   // price range: interval pruning
	ffResidual = 8    // sym = const OR price > 995: residual list
	ffAll      = 4    // no predicate: every tuple
	ffChurn    = 10   // queries dropped and re-created during the run
	// ffChurnEvery paces the churn: one DROP + CREATE per interval.
	ffChurnEvery = 100 // ms
	ffHighPrice  = 995.0
)

type ffQuery struct {
	name       string
	kind       int // 0 eq, 1 range, 2 residual, 3 all
	sym        int
	lo, hi     float64
	count, fp  int64 // received rows, fingerprint
	wantN      int64 // reference row count
	wantFP     int64
	churned    bool
	selectText string
}

const (
	kindEq = iota
	kindRange
	kindResidual
	kindAll
)

type filterFanout struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	syms    []string
	queries []*ffQuery // stable queries: checked exactly

	bySym      [][]int // eq queries per symbol
	residBySym [][]int
	byBucket   [][]int // range queries per unit price bucket
	residual   []int
	all        []int

	seed      int64
	churnRng  *rand.Rand
	churnMu   sync.Mutex
	churnLive []*ffQuery
	churnNext int
	wrong     atomic.Int64
}

// ffQuerySeed fixes the query set: the predicates define the workload,
// so they stay the same on every seed, and the seed varies the input.
const ffQuerySeed = 1

func newFilterFanout(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &filterFanout{
		seed:       seed,
		rng:        rng,
		zipf:       rand.NewZipf(rng, 1.1, 1, ffSymbols-1),
		bySym:      make([][]int, ffSymbols),
		residBySym: make([][]int, ffSymbols),
		byBucket:   make([][]int, 1000),
	}
	for i := 0; i < ffSymbols; i++ {
		w.syms = append(w.syms, fmt.Sprintf("S%03d", i))
	}
	var qs []*ffQuery
	rng = rand.New(rand.NewSource(ffQuerySeed))
	for i := 0; i < ffEq; i++ {
		qs = append(qs, &ffQuery{kind: kindEq, sym: rng.Intn(ffSymbols)})
	}
	for i := 0; i < ffRange; i++ {
		lo := float64(rng.Intn(99000)) / 100
		qs = append(qs, &ffQuery{kind: kindRange, lo: lo, hi: lo + 2 + float64(rng.Intn(800))/100})
	}
	for i := 0; i < ffResidual; i++ {
		qs = append(qs, &ffQuery{kind: kindResidual, sym: rng.Intn(ffSymbols)})
	}
	for i := 0; i < ffAll; i++ {
		qs = append(qs, &ffQuery{kind: kindAll})
	}
	// Registration order mixes the kinds, as independent clients would.
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	for i, q := range qs {
		q.name = fmt.Sprintf("f%d", i)
		q.selectText = w.selectText(q)
		switch q.kind {
		case kindEq:
			w.bySym[q.sym] = append(w.bySym[q.sym], i)
		case kindRange:
			for b := int(q.lo); b < 1000 && float64(b) < q.hi; b++ {
				w.byBucket[b] = append(w.byBucket[b], i)
			}
		case kindResidual:
			w.residual = append(w.residual, i)
			w.residBySym[q.sym] = append(w.residBySym[q.sym], i)
		case kindAll:
			w.all = append(w.all, i)
		}
	}
	w.queries = qs
	return w
}

func (w *filterFanout) spec() wlSpec {
	return wlSpec{
		streams:     []string{"ticks"},
		lightRate:   1_000,
		heavyRate:   8_000,
		p90LimitMS:  50,
		closedBatch: 1000,
		setups:      21,
	}
}

func (w *filterFanout) config(dataDir string) datacell.Config {
	return datacell.Config{}
}

func (w *filterFanout) selectText(q *ffQuery) string {
	const proj = "SELECT t.sym, t.price, t.gen_ns FROM [SELECT * FROM ticks] AS t"
	switch q.kind {
	case kindEq:
		return fmt.Sprintf("%s WHERE t.sym = '%s'", proj, w.syms[q.sym])
	case kindRange:
		return fmt.Sprintf("%s WHERE t.price >= %g AND t.price < %g", proj, q.lo, q.hi)
	case kindResidual:
		return fmt.Sprintf("%s WHERE t.sym = '%s' OR t.price > %g", proj, w.syms[q.sym], ffHighPrice)
	}
	return proj
}

func (w *filterFanout) matches(q *ffQuery, sym string, price float64) bool {
	switch q.kind {
	case kindEq:
		return sym == w.syms[q.sym]
	case kindRange:
		return price >= q.lo && price < q.hi
	case kindResidual:
		return sym == w.syms[q.sym] || price > ffHighPrice
	}
	return true
}

func (w *filterFanout) create(ctx context.Context, eng *datacell.Engine, q *ffQuery) error {
	_, err := eng.Exec(ctx, fmt.Sprintf("CREATE CONTINUOUS QUERY %s WITH (strategy = routed) AS %s", q.name, q.selectText))
	return err
}

func (w *filterFanout) setup(ctx context.Context, eng *datacell.Engine, tr *tracer) error {
	if _, err := eng.Exec(ctx, "CREATE BASKET ticks (sym VARCHAR, price DOUBLE, gen_ns INT)"); err != nil {
		return err
	}
	for _, q := range w.queries {
		id := tr.begin("datacell.Exec.create_query", 0)
		err := w.create(ctx, eng, q)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	w.churnMu.Lock()
	defer w.churnMu.Unlock()
	w.churnLive = w.churnLive[:0]
	w.churnNext = 0
	w.churnRng = rand.New(rand.NewSource(w.seed + 1))
	for i := 0; i < ffChurn; i++ {
		q := w.newChurnQuery()
		if err := w.create(ctx, eng, q); err != nil {
			return err
		}
		w.churnLive = append(w.churnLive, q)
	}
	return nil
}

func (w *filterFanout) newChurnQuery() *ffQuery {
	q := &ffQuery{name: fmt.Sprintf("c%d", w.churnNext), kind: kindEq, sym: w.churnRng.Intn(ffSymbols), churned: true}
	q.selectText = w.selectText(q)
	w.churnNext++
	return q
}

func (w *filterFanout) subscriptions() []subscription {
	var subs []subscription
	for _, q := range w.queries {
		subs = append(subs, w.sub(q))
	}
	w.churnMu.Lock()
	for _, q := range w.churnLive {
		subs = append(subs, w.sub(q))
	}
	w.churnMu.Unlock()
	return subs
}

// sub checks every delivered row against the query's predicate; stable
// queries also count rows and fingerprint them for the exact comparison.
func (w *filterFanout) sub(q *ffQuery) subscription {
	return subscription{query: q.name, counted: !q.churned, handle: func(rel *storage.Relation, dues []int64) []int64 {
		syms, prices, gens := rel.Cols[0].Strings(), rel.Cols[1].Floats(), rel.Cols[2].Ints()
		for i := range gens {
			if !w.matches(q, syms[i], prices[i]) {
				w.wrong.Add(1)
				continue
			}
			if q.churned {
				continue
			}
			q.count++
			q.fp += fingerprint(gens[i])
			dues = append(dues, gens[i])
		}
		return dues
	}}
}

func (w *filterFanout) round(due int64, n int) ([][]*vector.Vector, int64) {
	syms := make([]string, n)
	prices := make([]float64, n)
	gens := make([]int64, n)
	var determined int64
	hit := func(i int, gen int64) {
		q := w.queries[i]
		q.wantN++
		q.wantFP += fingerprint(gen)
		determined++
	}
	for j := 0; j < n; j++ {
		s := int(w.zipf.Uint64())
		p := float64(w.rng.Intn(100_000)) / 100
		g := due + int64(j)
		syms[j], prices[j], gens[j] = w.syms[s], p, g
		for _, i := range w.bySym[s] {
			hit(i, g)
		}
		for _, i := range w.byBucket[int(p)] {
			if q := w.queries[i]; p >= q.lo && p < q.hi {
				hit(i, g)
			}
		}
		if p > ffHighPrice {
			for _, i := range w.residual {
				hit(i, g)
			}
		} else {
			for _, i := range w.residBySym[s] {
				hit(i, g)
			}
		}
		for _, i := range w.all {
			hit(i, g)
		}
	}
	cols := []*vector.Vector{vector.FromStrings(syms), vector.FromFloats(prices), vector.FromInts(gens)}
	return [][]*vector.Vector{cols}, determined
}

func (w *filterFanout) closing(due int64) ([][]*vector.Vector, int64) {
	return [][]*vector.Vector{nil}, 0
}

// background drops the oldest churn query and registers a new one every
// ffChurnEvery ms, so route index writes happen beside Match reads.
func (w *filterFanout) background(ctx context.Context, eng *datacell.Engine, d *harness) {
	tick := time.NewTicker(ffChurnEvery * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		w.churnMu.Lock()
		old := w.churnLive[0]
		q := w.newChurnQuery()
		w.churnLive = append(w.churnLive[1:], q)
		w.churnMu.Unlock()
		var id int
		if d.tracing.Load() {
			id = d.tr.begin("datacell.Exec.churn", 0)
		}
		_, err := eng.Exec(ctx, "DROP CONTINUOUS QUERY "+old.name)
		if err == nil {
			err = w.create(ctx, eng, q)
		}
		d.tr.end(id)
		if err == nil {
			err = d.subscribe(w.sub(q))
		}
		if err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "perfbench: churn:", err)
			d.opFails.Add(1)
		}
	}
}

func (w *filterFanout) verify() (int64, []string) {
	var failed, rows int64
	for _, q := range w.queries {
		diff := q.count - q.wantN
		if diff < 0 {
			diff = -diff
		}
		if diff == 0 && q.fp != q.wantFP {
			diff = 1
		}
		failed += diff
		rows += q.count
	}
	failed += w.wrong.Load()
	return failed, []string{fmt.Sprintf("reference: %d stable queries, %d result rows delivered, %d wrong rows", len(w.queries), rows, w.wrong.Load())}
}

// replay times route.Index on the workload's own planned predicates and
// on the first rounds of its own input (regenerated from the seed).
func (w *filterFanout) replay(eng *datacell.Engine, tr *tracer) error {
	root := tr.begin("replay.route", 0)
	defer tr.end(root)
	ix := route.NewIndex()
	for i, q := range w.queries {
		pred, err := plannedPredicate(eng, q.selectText, "ticks")
		if err != nil {
			return err
		}
		p := route.Analyze(pred)
		id := tr.begin("route.Index.Add", root)
		ix.Add(uint64(i), p, i)
		tr.end(id)
	}
	ix.FlushIfDirty()
	var out []any
	replayRounds(newFilterFanout(w.seed), func(cols []*vector.Vector) {
		id := tr.begin("route.Index.Match", root)
		out = ix.Match(bat.ViewOf(cols...), out[:0])
		tr.end(id)
	})
	return nil
}

// plannedPredicate plans a continuous query's SELECT against the
// engine's catalog and returns its filter in stream-schema column
// space, the form the shared scan hands to the route index.
func plannedPredicate(eng *datacell.Engine, selectText, stream string) (expr.Expr, error) {
	st, err := sql.Parse(selectText)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sql.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("not a SELECT: %s", selectText)
	}
	p, err := plan.Build(sel, eng.Catalog())
	if err != nil {
		return nil, err
	}
	var preds []expr.Expr
	var scan *plan.Scan
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Project:
			walk(t.Child)
		case *plan.Select:
			preds = append(preds, t.Pred)
			walk(t.Child)
		case *plan.Scan:
			scan = t
		}
	}
	walk(p)
	if scan == nil {
		return nil, fmt.Errorf("no scan of %s in %s", stream, selectText)
	}
	pred := expr.JoinConjuncts(preds)
	if pred == nil {
		return nil, nil
	}
	mapping := map[int]int{}
	for i, c := range scan.Cols {
		mapping[i] = c
	}
	return expr.Remap(pred, mapping), nil
}
