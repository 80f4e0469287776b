package route

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/vector"
)

func col(idx int, name string, t vector.Type) *expr.ColRef {
	return &expr.ColRef{Index: idx, Name: name, Typ: t}
}

func intConst(v int64) *expr.Const { return &expr.Const{Val: vector.NewInt(v)} }

func bin(op expr.BinOp, l, r expr.Expr) expr.Expr { return &expr.Binary{Op: op, L: l, R: r} }

func intBatch(vals ...int64) bat.View {
	v := vector.NewWithCap(vector.Int64, len(vals))
	for _, x := range vals {
		v.AppendInt(x)
	}
	return bat.ViewOf(v)
}

func matchSet(ix *Index, batch bat.View) map[string]bool {
	got := map[string]bool{}
	for _, p := range ix.Match(batch, nil) {
		got[p.(string)] = true
	}
	return got
}

func TestAnalyzeKinds(t *testing.T) {
	c := col(0, "v", vector.Int64)
	cases := []struct {
		pred expr.Expr
		want Kind
	}{
		{nil, Residual},
		{bin(expr.CmpEq, c, intConst(7)), Eq},
		{bin(expr.CmpEq, intConst(7), c), Eq}, // flipped orientation
		{bin(expr.CmpGt, c, intConst(3)), Range},
		{bin(expr.And, bin(expr.CmpGt, c, intConst(3)), bin(expr.CmpLe, c, intConst(9))), Range},
		{bin(expr.And, bin(expr.CmpGt, c, intConst(3)), bin(expr.CmpEq, c, intConst(5))), Eq},
		{bin(expr.And, bin(expr.CmpGt, c, intConst(9)), bin(expr.CmpLt, c, intConst(3))), Never},
		{bin(expr.CmpEq, c, &expr.Const{Val: vector.NullValue(vector.Int64)}), Never},
		{bin(expr.Or, bin(expr.CmpEq, c, intConst(1)), bin(expr.CmpEq, c, intConst(2))), Residual},
		{bin(expr.CmpEq, c, bin(expr.Add, intConst(1), intConst(2))), Residual},
		// 3.5 can never equal an integer column.
		{bin(expr.CmpEq, c, &expr.Const{Val: vector.NewFloat(3.5)}), Never},
		// 3.0 can.
		{bin(expr.CmpEq, c, &expr.Const{Val: vector.NewFloat(3)}), Eq},
	}
	for i, tc := range cases {
		if got := Analyze(tc.pred).Kind(); got != tc.want {
			t.Errorf("case %d (%v): kind = %v, want %v", i, tc.pred, got, tc.want)
		}
	}
}

func TestMatchRouting(t *testing.T) {
	c := col(0, "v", vector.Int64)
	ix := NewIndex()
	ix.Add(1, Analyze(bin(expr.CmpEq, c, intConst(7))), "eq7")
	ix.Add(2, Analyze(bin(expr.CmpEq, c, intConst(100))), "eq100")
	ix.Add(3, Analyze(bin(expr.And, bin(expr.CmpGe, c, intConst(50)), bin(expr.CmpLt, c, intConst(60)))), "rng50_60")
	ix.Add(4, Analyze(nil), "all")
	ix.Add(5, Analyze(bin(expr.CmpEq, c, &expr.Const{Val: vector.NullValue(vector.Int64)})), "never")
	ix.FlushIfDirty()

	got := matchSet(ix, intBatch(1, 7, 42))
	for _, want := range []string{"eq7", "all"} {
		if !got[want] {
			t.Errorf("batch(1,7,42): missing %q in %v", want, got)
		}
	}
	for _, no := range []string{"eq100", "rng50_60", "never"} {
		if got[no] {
			t.Errorf("batch(1,7,42): unexpected %q", no)
		}
	}

	got = matchSet(ix, intBatch(55))
	if !got["rng50_60"] || !got["all"] || got["eq7"] {
		t.Errorf("batch(55): got %v", got)
	}
	// Range entries are judged row by row: 49 and 61 straddle the band
	// but neither lies inside it.
	got = matchSet(ix, intBatch(49, 61))
	if got["rng50_60"] {
		t.Errorf("batch(49,61): no row lies in [50,60), rng50_60 should be skipped, got %v", got)
	}
	got = matchSet(ix, intBatch(10, 20))
	if got["rng50_60"] {
		t.Errorf("batch(10,20): rng50_60 should be skipped, got %v", got)
	}
}

func TestPendingMatchesConservatively(t *testing.T) {
	c := col(0, "v", vector.Int64)
	ix := NewIndex()
	ix.Add(1, Analyze(bin(expr.CmpEq, c, intConst(100))), "eq100")
	// No flush: the pending overlay must still route the entry.
	if got := matchSet(ix, intBatch(1)); !got["eq100"] {
		t.Fatalf("pending entry not matched: %v", got)
	}
	ix.FlushIfDirty()
	if got := matchSet(ix, intBatch(1)); got["eq100"] {
		t.Fatalf("flushed eq entry matched a non-matching batch: %v", got)
	}
	ix.Remove(1)
	if got := matchSet(ix, intBatch(100)); len(got) != 0 {
		t.Fatalf("removed entry matched: %v", got)
	}
}

func TestConcurrentAddRemoveMatch(t *testing.T) {
	c := col(0, "v", vector.Int64)
	ix := NewIndex()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		id := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			id++
			ix.Add(id, Analyze(bin(expr.CmpEq, c, intConst(int64(id%16)))), fmt.Sprint(id))
			if id%4 == 0 {
				ix.FlushIfDirty()
			}
			if id%3 == 0 {
				ix.Remove(id - 1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		batch := intBatch(1, 2, 3, 4, 5)
		for i := 0; i < 2000; i++ {
			ix.Match(batch, nil)
		}
		close(stop)
	}()
	wg.Wait()
}
