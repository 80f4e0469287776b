package route

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/vector"
)

// propCols is the stream schema of the property test: one column of
// every type the index normalizes.
var propCols = []*expr.ColRef{
	col(0, "i", vector.Int64),
	col(1, "t", vector.Timestamp),
	col(2, "f", vector.Float64),
	col(3, "s", vector.String),
	col(4, "b", vector.Bool),
}

var propFloats = []float64{-2, -1.5, math.Copysign(0, -1), 0, 0.5, 1, 1.5, 2, math.NaN(), math.Inf(1), math.Inf(-1)}

var propStrings = []string{"", "a", "b", "c"}

// propValue draws a value of type typ from a small domain, so equality
// anchors hit and ranges straddle real rows; one in ten is NULL.
func propValue(rng *rand.Rand, typ vector.Type) vector.Value {
	if rng.Intn(10) == 0 {
		return vector.NullValue(typ)
	}
	switch typ {
	case vector.Int64:
		return vector.NewInt(int64(rng.Intn(11) - 5))
	case vector.Timestamp:
		return vector.NewTimestamp(int64(rng.Intn(11)))
	case vector.Float64:
		return vector.NewFloat(propFloats[rng.Intn(len(propFloats))])
	case vector.String:
		return vector.NewString(propStrings[rng.Intn(len(propStrings))])
	default:
		return vector.NewBool(rng.Intn(2) == 0)
	}
}

// propBatch builds a view of n rows over propCols: more rows than n cut
// into random chunks, then sliced at a random offset, so both
// multi-chunk views and windowed boundary chunks are exercised.
func propBatch(rng *rand.Rand, n int) bat.View {
	pre, post := rng.Intn(4), rng.Intn(4)
	total := pre + n + post
	var chunks []bat.Chunk
	for row := 0; row < total; {
		size := 1 + rng.Intn(total-row)
		cols := make([]*vector.Vector, len(propCols))
		for c, cr := range propCols {
			cols[c] = vector.New(cr.Typ)
			for k := 0; k < size; k++ {
				cols[c].AppendValue(propValue(rng, cr.Typ))
			}
		}
		chunks = append(chunks, bat.Chunk{Base: bat.OID(row), Cols: cols})
		row += size
	}
	if len(chunks) == 0 {
		cols := make([]*vector.Vector, len(propCols))
		for c, cr := range propCols {
			cols[c] = vector.New(cr.Typ)
		}
		chunks = append(chunks, bat.Chunk{Cols: cols})
	}
	return bat.View{Chunks: chunks}.Slice(pre, pre+n)
}

// propConst draws a comparison constant for column c: usually of the
// column's own type, sometimes a cross-domain numeric one (a float
// against an integer column, an integer or timestamp against a float
// column), NaN, or NULL.
func propConst(rng *rand.Rand, c *expr.ColRef) vector.Value {
	switch rng.Intn(8) {
	case 0:
		return vector.NullValue(c.Typ)
	case 1:
		switch c.Typ {
		case vector.Int64, vector.Timestamp:
			return vector.NewFloat(float64(rng.Intn(21)-10) / 2) // -5 … 5 in halves
		case vector.Float64:
			if rng.Intn(2) == 0 {
				return vector.NewTimestamp(int64(rng.Intn(5) - 2))
			}
			return vector.NewInt(int64(rng.Intn(5) - 2))
		}
	case 2:
		if c.Typ.Numeric() {
			return vector.NewFloat(math.NaN())
		}
	}
	v := propValue(rng, c.Typ)
	for v.Null {
		v = propValue(rng, c.Typ)
	}
	return v
}

// propAtom draws one comparison conjunct, in either orientation.
func propAtom(rng *rand.Rand) expr.Expr {
	c := propCols[rng.Intn(len(propCols))]
	ops := []expr.BinOp{expr.CmpEq, expr.CmpNe, expr.CmpLt, expr.CmpLe, expr.CmpGt, expr.CmpGe}
	op := ops[rng.Intn(len(ops))]
	k := &expr.Const{Val: propConst(rng, c)}
	if rng.Intn(3) == 0 {
		return bin(flip(op), k, c) // const op' col
	}
	return bin(op, c, k)
}

// propPred draws a conjunction of up to four conjuncts, mostly atoms on
// a couple of columns (so ranges intersect), sometimes a disjunction
// the index cannot anchor on.
func propPred(rng *rand.Rand) expr.Expr {
	if rng.Intn(20) == 0 {
		return nil
	}
	var parts []expr.Expr
	for k := 1 + rng.Intn(4); k > 0; k-- {
		if rng.Intn(8) == 0 {
			parts = append(parts, bin(expr.Or, propAtom(rng), propAtom(rng)))
			continue
		}
		parts = append(parts, propAtom(rng))
	}
	return expr.JoinConjuncts(parts)
}

// trueRows returns the rows where e evaluates to true (nil e: every row).
func trueRows(t *testing.T, e expr.Expr, cols []*vector.Vector, n int) bat.Candidates {
	t.Helper()
	if e == nil {
		return bat.All(n)
	}
	mask, err := expr.Eval(e, cols, nil)
	if err != nil {
		t.Fatalf("eval %v: %v", e, err)
	}
	rows := bat.Candidates{}
	for i, b := range mask.Bools() {
		if b && !mask.IsNull(i) {
			rows = append(rows, i)
		}
	}
	return rows
}

func sameRows(a, b bat.Candidates) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMatchRowsProperty: over random batches and random predicates of
// every shape Analyze accepts, a flushed index hands each entry exactly
// the rows where its anchor conjunct evaluates true (and no hit when
// there are none), every row the full predicate accepts is among them,
// and an unflushed index hands every non-Never entry every row.
func TestMatchRowsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 300; round++ {
		preds := make([]expr.Expr, 40)
		analyzed := make([]Pred, len(preds))
		ix := NewIndex()
		for id := range preds {
			preds[id] = propPred(rng)
			analyzed[id] = Analyze(preds[id])
			ix.Add(uint64(id), analyzed[id], id)
		}
		for phase := 0; phase < 2; phase++ {
			if phase == 1 {
				ix.FlushIfDirty()
			}
			for b := 0; b < 5; b++ {
				n := rng.Intn(24)
				batch := propBatch(rng, n)
				cols := batch.Columns()
				hits := map[int]bat.Candidates{}
				for _, h := range ix.MatchRows(batch, nil) {
					id := h.Payload.(int)
					if _, dup := hits[id]; dup {
						t.Fatalf("entry %d reached twice", id)
					}
					if h.Rows != nil && len(h.Rows) == 0 {
						t.Fatalf("entry %d reached with an empty row list", id)
					}
					hits[id] = h.Rows
				}
				for id, p := range analyzed {
					desc := fmt.Sprintf("round %d phase %d pred %v (%s)", round, phase, preds[id], p.Kind())
					rows, hit := hits[id]
					full := trueRows(t, preds[id], cols, n)
					if p.kind == Never {
						if hit || len(full) > 0 {
							t.Fatalf("%s: never entry hit=%v, full predicate holds on %v", desc, hit, full)
						}
						continue
					}
					if phase == 0 || p.kind == Residual {
						if !hit || rows != nil {
							t.Fatalf("%s: want every row, hit=%v rows=%v", desc, hit, rows)
						}
						continue
					}
					want := trueRows(t, p.anchor, cols, n)
					if len(want) == 0 {
						if hit {
							t.Fatalf("%s: anchor %v holds nowhere, yet reached with %v", desc, p.anchor, rows)
						}
					} else if !sameRows(rows, want) {
						t.Fatalf("%s: anchor %v rows = %v, want %v", desc, p.anchor, rows, want)
					}
					if !sameRows(bat.Intersect(full, rows), full) {
						t.Fatalf("%s: full predicate holds on %v, anchor rows %v drop some", desc, full, rows)
					}
				}
			}
		}
	}
}

// TestAddAllocatesLinearly: the pending overlay is append-only, so
// registering N entries before a flush allocates O(N) bytes, not the
// O(N²) of copying the overlay on every Add.
func TestAddAllocatesLinearly(t *testing.T) {
	const n = 10000
	c := col(0, "v", vector.Int64)
	preds := make([]Pred, n)
	for i := range preds {
		preds[i] = Analyze(bin(expr.CmpEq, c, intConst(int64(i))))
	}
	ix := NewIndex()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, p := range preds {
		ix.Add(uint64(i), p, i)
	}
	runtime.ReadMemStats(&after)
	perAdd := float64(after.TotalAlloc-before.TotalAlloc) / n
	// An Add costs an entry, a state header, a master-map slot and an
	// amortized overlay slot: a few hundred bytes. Copying the overlay
	// each time would average 8·n/2 = 40 KB per Add.
	if perAdd > 1024 {
		t.Fatalf("Add allocated %.0f bytes per entry over %d entries, want under 1 KiB", perAdd, n)
	}
	if got := len(ix.st.Load().pending); got != n {
		t.Fatalf("pending overlay holds %d entries, want %d", got, n)
	}
}
