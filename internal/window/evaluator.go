package window

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/vector"
)

// PlanEvaluator implements re-evaluation: each window is computed by
// running the full compiled plan with the window content substituted for
// the stream basket — exactly what a factory does for unwindowed queries.
type PlanEvaluator struct {
	Plan    plan.Node
	Catalog *catalog.Catalog
	// Source is the basket name the plan scans; the window content
	// overrides it.
	Source string
}

// Eval implements Evaluator.
func (p *PlanEvaluator) Eval(win *storage.Relation) (*storage.Relation, error) {
	ctx := exec.NewContext(p.Catalog)
	ctx.Overrides[strings.ToLower(p.Source)] = bat.ViewOf(win.Cols...)
	return exec.Run(p.Plan, ctx)
}

// Schema implements Evaluator.
func (p *PlanEvaluator) Schema() *catalog.Schema { return p.Plan.Schema() }

// aggState is the mergeable per-group accumulator for one aggregate.
type aggState struct {
	count    int64 // non-NULL inputs (COUNT(e)); rows for COUNT(*)
	sumI     int64
	sumF     float64
	min      vector.Value
	max      vector.Value
	seen     bool
	isFlt    bool
	distinct map[vector.Value]struct{} // COUNT(DISTINCT e) only
}

func (s *aggState) merge(o *aggState) {
	s.count += o.count
	s.sumI += o.sumI
	s.sumF += o.sumF
	if o.seen {
		if !s.seen {
			s.min, s.max, s.seen = o.min, o.max, true
		} else {
			if vector.Compare(o.min, s.min) < 0 {
				s.min = o.min
			}
			if vector.Compare(o.max, s.max) > 0 {
				s.max = o.max
			}
		}
	}
	if o.distinct != nil {
		if s.distinct == nil {
			s.distinct = map[vector.Value]struct{}{}
		}
		for v := range o.distinct {
			s.distinct[v] = struct{}{}
		}
	}
	s.isFlt = s.isFlt || o.isFlt
}

// groupSummary is one pane's digest: per composite group key, the states
// of every aggregate, plus a representative key row.
type groupSummary struct {
	keys   map[string][]vector.Value // group signature → key values
	states map[string][]*aggState
	order  []string // first-seen order for deterministic output
}

// IncrementalAggEvaluator implements the basic-window model for plans of
// the shape Project(Select?(Aggregate(Scan))) — grouped or scalar
// aggregation over a single stream. Panes are summarized once into
// per-group {count, sum, min, max} states; window results are synthesized
// by merging the pane states and then applying the plan's HAVING and
// projection expressions over the merged aggregate output.
type IncrementalAggEvaluator struct {
	filter    expr.Expr      // Scan filter over the buffered schema
	keys      []expr.Expr    // group-by keys over the buffered schema
	specs     []plan.AggSpec // aggregates over the buffered schema
	having    expr.Expr      // over [keys…, aggs…]
	projExprs []expr.Expr    // over [keys…, aggs…]
	aggSchema *catalog.Schema
	outSchema *catalog.Schema
}

// RecognizeIncremental inspects a compiled plan and builds the incremental
// evaluator when the plan shape supports it. The second result reports
// whether recognition succeeded; callers fall back to re-evaluation
// otherwise.
func RecognizeIncremental(p plan.Node) (*IncrementalAggEvaluator, bool) {
	proj, ok := p.(*plan.Project)
	if !ok {
		return nil, false
	}
	inner := proj.Child
	var having expr.Expr
	if sel, ok := inner.(*plan.Select); ok {
		having = sel.Pred
		inner = sel.Child
	}
	agg, ok := inner.(*plan.Aggregate)
	if !ok {
		return nil, false
	}
	ev, ok := recognizeAgg(agg)
	if !ok {
		return nil, false
	}
	ev.having = having
	ev.outSchema = proj.Out
	ev.projExprs = proj.Exprs
	return ev, true
}

// RecognizePartial builds the incremental evaluator for a bare
// partial-aggregation plan (Aggregate over Scan, no HAVING/projection) —
// the shape shard pipelines of a partitioned windowed query execute,
// emitting mergeable per-window partials instead of final rows.
func RecognizePartial(p plan.Node) (*IncrementalAggEvaluator, bool) {
	agg, ok := p.(*plan.Aggregate)
	if !ok {
		return nil, false
	}
	ev, ok := recognizeAgg(agg)
	if !ok {
		return nil, false
	}
	// Identity projection: the partial rows ARE the aggregate output.
	ev.outSchema = agg.Out
	for i, c := range agg.Out.Columns {
		ev.projExprs = append(ev.projExprs, &expr.ColRef{Index: i, Name: c.Name, Typ: c.Type})
	}
	return ev, true
}

// recognizeAgg builds the shared core (filter, keys, aggregate states)
// from an Aggregate-over-Scan subtree; callers attach the HAVING and
// projection layer.
func recognizeAgg(agg *plan.Aggregate) (*IncrementalAggEvaluator, bool) {
	scan, ok := agg.Child.(*plan.Scan)
	if !ok {
		return nil, false
	}
	// The scan must emit source columns 1:1 so buffered tuples line up
	// with the plan's column indexes (pruning may reorder; require the
	// identity prefix mapping instead of assuming it).
	remap := map[int]int{}
	for outIdx, srcIdx := range scan.Cols {
		remap[outIdx] = srcIdx
	}
	ev := &IncrementalAggEvaluator{aggSchema: agg.Out}
	if scan.Filter != nil {
		ev.filter = scan.Filter // already over the full source schema
	}
	for _, k := range agg.Keys {
		ev.keys = append(ev.keys, expr.Remap(k, remap))
	}
	for _, a := range agg.Aggs {
		spec := a
		if a.Arg != nil {
			spec.Arg = expr.Remap(a.Arg, remap)
		}
		switch a.Kind {
		case algebra.AggCount, algebra.AggCountAll, algebra.AggCountDistinct,
			algebra.AggSum, algebra.AggMin, algebra.AggMax, algebra.AggAvg:
		default:
			return nil, false
		}
		ev.specs = append(ev.specs, spec)
	}
	return ev, true
}

// Schema implements PaneEvaluator.
func (e *IncrementalAggEvaluator) Schema() *catalog.Schema { return e.outSchema }

func groupSig(vals []vector.Value) string {
	var b strings.Builder
	for _, v := range vals {
		if v.Null {
			b.WriteString("\x00N")
		} else {
			b.WriteString(v.String())
		}
		b.WriteByte('\x1f')
	}
	return b.String()
}

// Summarize implements PaneEvaluator.
func (e *IncrementalAggEvaluator) Summarize(pane *storage.Relation) (Summary, error) {
	cands := bat.All(pane.NumRows())
	if e.filter != nil {
		var err error
		if cands, err = expr.Select(e.filter, pane.Cols, nil, pane.NumRows()); err != nil {
			return nil, err
		}
	}
	keyVecs := make([]*vector.Vector, len(e.keys))
	for i, k := range e.keys {
		kv, err := expr.Eval(k, pane.Cols, cands)
		if err != nil {
			return nil, err
		}
		keyVecs[i] = kv
	}
	argVecs := make([]*vector.Vector, len(e.specs))
	for i, s := range e.specs {
		if s.Arg == nil {
			continue
		}
		av, err := expr.Eval(s.Arg, pane.Cols, cands)
		if err != nil {
			return nil, err
		}
		argVecs[i] = av
	}

	gs := &groupSummary{keys: map[string][]vector.Value{}, states: map[string][]*aggState{}}
	for row := 0; row < len(cands); row++ {
		keyVals := make([]vector.Value, len(keyVecs))
		for i, kv := range keyVecs {
			keyVals[i] = kv.Get(row)
		}
		sig := groupSig(keyVals)
		states, ok := gs.states[sig]
		if !ok {
			states = make([]*aggState, len(e.specs))
			for i := range states {
				states[i] = &aggState{}
			}
			gs.states[sig] = states
			gs.keys[sig] = keyVals
			gs.order = append(gs.order, sig)
		}
		for i, spec := range e.specs {
			st := states[i]
			if spec.Kind == algebra.AggCountAll {
				st.count++
				continue
			}
			v := argVecs[i].Get(row)
			if v.Null {
				continue
			}
			if spec.Kind == algebra.AggCountDistinct {
				if st.distinct == nil {
					st.distinct = map[vector.Value]struct{}{}
				}
				st.distinct[v] = struct{}{}
				continue
			}
			st.count++
			switch v.Typ {
			case vector.Float64:
				st.sumF += v.F
				st.isFlt = true
			default:
				st.sumI += v.I
				st.sumF += float64(v.I)
			}
			if !st.seen {
				st.min, st.max, st.seen = v, v, true
			} else {
				if vector.Compare(v, st.min) < 0 {
					st.min = v
				}
				if vector.Compare(v, st.max) > 0 {
					st.max = v
				}
			}
		}
	}
	return gs, nil
}

// Merge implements PaneEvaluator.
func (e *IncrementalAggEvaluator) Merge(panes []Summary) (*storage.Relation, error) {
	merged := &groupSummary{keys: map[string][]vector.Value{}, states: map[string][]*aggState{}}
	for _, p := range panes {
		gs, ok := p.(*groupSummary)
		if !ok {
			return nil, fmt.Errorf("window: unexpected summary type %T", p)
		}
		for _, sig := range gs.order {
			dst, exists := merged.states[sig]
			if !exists {
				dst = make([]*aggState, len(e.specs))
				for i := range dst {
					dst[i] = &aggState{}
				}
				merged.states[sig] = dst
				merged.keys[sig] = gs.keys[sig]
				merged.order = append(merged.order, sig)
			}
			for i, st := range gs.states[sig] {
				dst[i].merge(st)
			}
		}
	}

	// A scalar aggregate (no GROUP BY) over an empty window still yields
	// one row — COUNT 0, NULL extremes — matching the kernel's aggregate
	// operator, so both evaluation modes and the shard-merge stage agree
	// on empty windows.
	if len(e.keys) == 0 && len(merged.order) == 0 {
		states := make([]*aggState, len(e.specs))
		for i := range states {
			states[i] = &aggState{}
		}
		sig := groupSig(nil)
		merged.states[sig] = states
		merged.keys[sig] = nil
		merged.order = append(merged.order, sig)
	}

	// Materialize the aggregate output [keys…, aggs…].
	aggRel := storage.NewRelation(e.aggSchema)
	for _, sig := range merged.order {
		row := make([]vector.Value, 0, e.aggSchema.Len())
		row = append(row, merged.keys[sig]...)
		for i, spec := range e.specs {
			st := merged.states[sig][i]
			row = append(row, finishAgg(spec.Kind, st, e.aggSchema.Columns[len(e.keys)+i].Type))
		}
		aggRel.AppendRow(row)
	}

	// HAVING.
	cands := bat.All(aggRel.NumRows())
	if e.having != nil {
		var err error
		if cands, err = expr.Select(e.having, aggRel.Cols, nil, aggRel.NumRows()); err != nil {
			return nil, err
		}
	}
	// Projection.
	out := &storage.Relation{Schema: e.outSchema, Cols: make([]*vector.Vector, len(e.projExprs))}
	for i, pe := range e.projExprs {
		col, err := expr.Eval(pe, aggRel.Cols, cands)
		if err != nil {
			return nil, err
		}
		out.Cols[i] = col
	}
	return out, nil
}

func finishAgg(kind algebra.AggKind, st *aggState, outType vector.Type) vector.Value {
	switch kind {
	case algebra.AggCount, algebra.AggCountAll:
		return vector.NewInt(st.count)
	case algebra.AggCountDistinct:
		return vector.NewInt(int64(len(st.distinct)))
	case algebra.AggSum:
		if st.count == 0 {
			return vector.NullValue(outType)
		}
		if outType == vector.Float64 {
			return vector.NewFloat(st.sumF)
		}
		return vector.NewInt(st.sumI)
	case algebra.AggAvg:
		if st.count == 0 {
			return vector.NullValue(vector.Float64)
		}
		return vector.NewFloat(st.sumF / float64(st.count))
	case algebra.AggMin:
		if !st.seen {
			return vector.NullValue(outType)
		}
		return st.min
	case algebra.AggMax:
		if !st.seen {
			return vector.NullValue(outType)
		}
		return st.max
	default:
		return vector.NullValue(outType)
	}
}
