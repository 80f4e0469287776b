package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/vector"
)

var wideSchema = catalog.NewSchema(
	catalog.Column{Name: "i", Type: vector.Int64},
	catalog.Column{Name: "t", Type: vector.Timestamp},
	catalog.Column{Name: "f", Type: vector.Float64},
	catalog.Column{Name: "s", Type: vector.String},
	catalog.Column{Name: "b", Type: vector.Bool},
)

// randWideRow draws one row of wideSchema from small domains, with NULLs,
// NaN and ±0.
func randWideRow(rng *rand.Rand) []vector.Value {
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), 1, 1.5, 2}
	row := []vector.Value{
		vector.NewInt(int64(rng.Intn(5) - 2)),
		vector.NewTimestamp(int64(rng.Intn(5) - 2)),
		vector.NewFloat(floats[rng.Intn(len(floats))]),
		vector.NewString([]string{"", "a", "ab", "b"}[rng.Intn(4)]),
		vector.NewBool(rng.Intn(2) == 0),
	}
	for c := range row {
		if rng.Intn(6) == 0 {
			row[c] = vector.NullValue(row[c].Typ)
		}
	}
	return row
}

// randWhere draws a random WHERE clause over wideSchema in SQL, so literal
// binding (an INT literal against the DOUBLE column f, an untyped NULL)
// goes through the planner.
func randWhere(rng *rand.Rand, depth int) string {
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(5) {
		case 0:
			return "NOT (" + randWhere(rng, depth-1) + ")"
		case 1, 2:
			return "(" + randWhere(rng, depth-1) + " AND " + randWhere(rng, depth-1) + ")"
		default:
			return "(" + randWhere(rng, depth-1) + " OR " + randWhere(rng, depth-1) + ")"
		}
	}
	op := []string{"=", "<>", "<", "<=", ">", ">="}[rng.Intn(6)]
	k := rng.Intn(4)
	switch rng.Intn(10) {
	case 0:
		return fmt.Sprintf("i %s %d", op, k)
	case 1:
		return fmt.Sprintf("%d %s t", k, op)
	case 2:
		return fmt.Sprintf("f %s %d", op, k)
	case 3:
		return fmt.Sprintf("i %s 1.5", op)
	case 4:
		return fmt.Sprintf("'a' %s s", op)
	case 5:
		return fmt.Sprintf("i %s f", op)
	case 6:
		return fmt.Sprintf("i + f %s %d", op, k)
	case 7:
		return []string{"f IS NULL", "s IS NOT NULL", "b", "b = FALSE"}[rng.Intn(4)]
	case 8:
		return fmt.Sprintf("t %s i", op)
	default:
		return fmt.Sprintf("f %s NULL", op)
	}
}

// findFilter returns the predicate the plan evaluates over the source:
// the scan's pushed-down filter or the Select above it.
func findFilter(n plan.Node) expr.Expr {
	switch x := n.(type) {
	case *plan.Scan:
		return x.Filter
	case *plan.Select:
		return x.Pred
	case *plan.Project:
		return findFilter(x.Child)
	}
	return nil
}

// Property: a WHERE clause over a multi-chunk source, run as planned
// (Select over the scan) and optimized (filter pushed into the chunked
// scan), keeps exactly the rows the predicate's Bool mask marks TRUE over
// the flattened source.
func TestPropChunkedWhereMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cat := catalog.New()
	if err := cat.Register("w", catalog.KindTable, storage.NewTable("w", wideSchema)); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 400; trial++ {
		// A source of 0–4 chunks, some empty, and its flat copy.
		flat := storage.NewRelation(wideSchema)
		var view bat.View
		for c := rng.Intn(5); c > 0; c-- {
			ch := storage.NewRelation(wideSchema)
			for r := rng.Intn(12); r > 0; r-- {
				row := randWideRow(rng)
				ch.AppendRow(row)
				flat.AppendRow(row)
			}
			view.Chunks = append(view.Chunks, bat.Chunk{Base: bat.OID(flat.NumRows() - ch.NumRows()), Cols: ch.Cols})
		}
		if len(view.Chunks) == 0 {
			view = bat.ViewOf(flat.Cols...)
		}
		q := "SELECT * FROM w WHERE " + randWhere(rng, 3)
		sel, err := sql.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		p, err := plan.Build(sel, cat)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		pred := findFilter(p)
		mask, err := expr.Eval(pred, flat.Cols, nil)
		if err != nil {
			t.Fatalf("%q: Eval: %v", q, err)
		}
		want := flat.Take(algebra.MaskSelect(mask, nil)).String()
		for _, node := range []plan.Node{p, plan.Optimize(p)} {
			ctx := NewContext(cat)
			ctx.Overrides["w"] = view
			got, err := Run(node, ctx)
			if err != nil {
				t.Fatalf("%q: %v\n%s", q, err, plan.Explain(node))
			}
			if got.String() != want {
				t.Fatalf("trial %d %q over %d chunks:\n%s\ngot:\n%s\nwant:\n%s", trial, q, len(view.Chunks), plan.Explain(node), got, want)
			}
		}
	}
}
