package expr

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/vector"
)

// Column layout of the random relations below.
const (
	pInt = iota
	pTs
	pFloat
	pStr
	pBool
	pWidth
)

var (
	propTypes  = [pWidth]vector.Type{vector.Int64, vector.Timestamp, vector.Float64, vector.String, vector.Bool}
	propFloats = []float64{math.NaN(), 0, math.Copysign(0, -1), -1, 1.5, 2, 3}
	propStrs   = []string{"", "a", "ab", "b"}
	propOps    = []BinOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
)

// randValue draws a small-domain value of type t, NULL one time in five,
// so equal values and NULLs are frequent.
func randValue(rng *rand.Rand, t vector.Type) vector.Value {
	if rng.Intn(5) == 0 {
		return vector.NullValue(t)
	}
	switch t {
	case vector.Int64:
		return vector.NewInt(int64(rng.Intn(7) - 3))
	case vector.Timestamp:
		return vector.NewTimestamp(int64(rng.Intn(7) - 3))
	case vector.Float64:
		return vector.NewFloat(propFloats[rng.Intn(len(propFloats))])
	case vector.String:
		return vector.NewString(propStrs[rng.Intn(len(propStrs))])
	default:
		return vector.NewBool(rng.Intn(2) == 0)
	}
}

func randColumns(rng *rand.Rand, n int) []*vector.Vector {
	cols := make([]*vector.Vector, pWidth)
	for c, t := range propTypes {
		cols[c] = vector.New(t)
		for i := 0; i < n; i++ {
			cols[c].AppendValue(randValue(rng, t))
		}
	}
	return cols
}

func randConst(rng *rand.Rand, t vector.Type) *Const {
	return &Const{Val: randValue(rng, t)}
}

// cmpLeaf builds l op r, or the flipped spelling r op' l.
func cmpLeaf(rng *rand.Rand, l, r Expr) Expr {
	op := propOps[rng.Intn(len(propOps))]
	if rng.Intn(2) == 0 {
		return &Binary{Op: op, L: l, R: r}
	}
	mirror := map[BinOp]BinOp{CmpLt: CmpGt, CmpLe: CmpGe, CmpGt: CmpLt, CmpGe: CmpLe}
	if m, ok := mirror[op]; ok {
		op = m
	}
	return &Binary{Op: op, L: r, R: l}
}

// randPred draws a random boolean predicate over the propTypes columns.
func randPred(rng *rand.Rand, depth int) Expr {
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(5) {
		case 0:
			return &Not{E: randPred(rng, depth-1)}
		case 1, 2:
			return &Binary{Op: And, L: randPred(rng, depth-1), R: randPred(rng, depth-1)}
		default:
			return &Binary{Op: Or, L: randPred(rng, depth-1), R: randPred(rng, depth-1)}
		}
	}
	ref := func(c int) *ColRef { return col(c, propTypes[c]) }
	switch rng.Intn(10) {
	case 0, 1: // column vs constant of its own type
		c := rng.Intn(pWidth)
		return cmpLeaf(rng, ref(c), randConst(rng, propTypes[c]))
	case 2: // Float64 column vs Int64 constant: ThetaSelect via AsFloat
		return cmpLeaf(rng, ref(pFloat), randConst(rng, vector.Int64))
	case 3: // Int64 column vs Float64 constant: stays on the fallback
		return cmpLeaf(rng, ref(pInt), randConst(rng, vector.Float64))
	case 4: // Timestamp column vs Int64 constant
		return cmpLeaf(rng, ref(pTs), randConst(rng, vector.Int64))
	case 5: // column vs column
		pairs := [][2]int{{pInt, pTs}, {pInt, pFloat}, {pFloat, pFloat}, {pStr, pStr}, {pBool, pBool}}
		p := pairs[rng.Intn(len(pairs))]
		return cmpLeaf(rng, ref(p[0]), ref(p[1]))
	case 6: // arithmetic against a constant
		sum := &Binary{Op: Add, L: ref(pInt), R: ref(pFloat)}
		return cmpLeaf(rng, sum, randConst(rng, vector.Int64))
	case 7:
		return &IsNull{E: ref(rng.Intn(pWidth)), Negate: rng.Intn(2) == 0}
	case 8:
		return ref(pBool)
	default: // untyped NULL literal, as the planner binds it
		return cmpLeaf(rng, ref(rng.Intn(pWidth)), &Const{Val: vector.NullValue(vector.Unknown)})
	}
}

// randCands draws a random sorted subset of [0, n), or nil (all rows).
func randCands(rng *rand.Rand, n int) bat.Candidates {
	if rng.Intn(3) == 0 {
		return nil
	}
	out := bat.Candidates{}
	for p := 0; p < n; p++ {
		if rng.Intn(2) == 0 {
			out = append(out, p)
		}
	}
	return out
}

// maskReference is the definition Select must match: evaluate the whole
// predicate to a Bool mask over the candidates, keep the TRUE entries.
func maskReference(pred Expr, cols []*vector.Vector, cands bat.Candidates) (bat.Candidates, error) {
	mask, err := Eval(pred, cols, cands)
	if err != nil {
		return nil, err
	}
	return algebra.MaskSelect(mask, cands), nil
}

// Property: the candidate-list selector keeps exactly the rows Eval marks
// TRUE, for random AND/OR/NOT/IS NULL trees over every column type with
// NULLs, NaN and ±0, with and without input candidates.
func TestPropSelectMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(40)
		cols := randColumns(rng, n)
		pred := randPred(rng, 4)
		cands := randCands(rng, n)
		want, err := maskReference(pred, cols, cands)
		if err != nil {
			t.Fatalf("trial %d: Eval(%s): %v", trial, pred, err)
		}
		got, err := Select(pred, cols, cands, n)
		if err != nil {
			t.Fatalf("trial %d: Select(%s): %v", trial, pred, err)
		}
		if got == nil || !reflect.DeepEqual([]int(got), []int(want)) {
			t.Fatalf("trial %d: %s over %v\n got %v\nwant %v", trial, pred, cands, got, want)
		}
	}
}

// The right side of an OR runs only over the rows its left side
// rejected. The right side's column here is cut short to cover only those
// rows: evaluating it at an accepted row would index past its end.
func TestSelectOrRightSideSeesOnlyRejectedRows(t *testing.T) {
	ints := vector.FromInts([]int64{0, 1, 2, 3, 4, 5, 6, 7})
	short := vector.FromInts([]int64{10, 11, 12, 13}) // rows 0..3 only
	// i >= 4 OR s = 12 OR s + 0 = 13: the second OR's right side is a
	// fallback leaf, the first's a ThetaSelect.
	pred := &Binary{Op: Or,
		L: &Binary{Op: Or,
			L: &Binary{Op: CmpGe, L: col(0, vector.Int64), R: ci(4)},
			R: &Binary{Op: CmpEq, L: col(1, vector.Int64), R: ci(12)}},
		R: &Binary{Op: CmpEq, L: &Binary{Op: Add, L: col(1, vector.Int64), R: ci(0)}, R: ci(13)}}
	for _, cands := range []bat.Candidates{nil, {1, 2, 3, 5, 7}} {
		var got bat.Candidates
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("cands %v: right side evaluated at an accepted row: %v", cands, r)
				}
			}()
			var err error
			if got, err = Select(pred, []*vector.Vector{ints, short}, cands, ints.Len()); err != nil {
				t.Fatal(err)
			}
		}()
		want := bat.Candidates{2, 3, 4, 5, 6, 7}
		if cands != nil {
			want = bat.Candidates{2, 3, 5, 7}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cands %v: got %v, want %v", cands, got, want)
		}
	}
}

// NOT of an unknown is unknown: a row whose comparison is NULL is
// rejected under both the predicate and its negation.
func TestSelectNotIsNotComplement(t *testing.T) {
	v := vector.New(vector.Float64)
	for _, x := range []float64{1, 5} {
		v.AppendFloat(x)
	}
	v.AppendNull()
	gt := &Binary{Op: CmpGt, L: col(0, vector.Float64), R: ci(2)}
	cols := []*vector.Vector{v}
	for _, tc := range []struct {
		pred Expr
		want bat.Candidates
	}{
		{gt, bat.Candidates{1}},
		{&Not{E: gt}, bat.Candidates{0}},
		{&Binary{Op: Or, L: gt, R: &Not{E: gt}}, bat.Candidates{0, 1}},
	} {
		got, err := Select(tc.pred, cols, nil, v.Len())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.pred, got, tc.want)
		}
	}
}

// refCompare is the per-row definition of `a op b`: NULL when either side
// is NULL; an integer or timestamp against a float compares as float64;
// everything else as vector.Compare orders it.
func refCompare(op BinOp, a, b vector.Value) vector.Value {
	if a.Null || b.Null {
		return vector.NullValue(vector.Bool)
	}
	var c int
	if a.Typ != b.Typ && (a.Typ == vector.Float64 || b.Typ == vector.Float64) {
		x, y := a.AsFloat(), b.AsFloat()
		switch {
		case x < y:
			c = -1
		case x > y:
			c = 1
		}
	} else {
		c = vector.Compare(a, b)
	}
	return vector.NewBool(op.CmpOp().Holds(c))
}

// Table check: every comparison path of Eval (column vs column, column vs
// constant, constant vs column) agrees with the per-row definition on
// every pair of domain values, NULL, NaN and ±0 included.
func TestEvalCompareMatchesPerRowDefinition(t *testing.T) {
	domain := func(typ vector.Type) []vector.Value {
		out := []vector.Value{vector.NullValue(typ)}
		switch typ {
		case vector.Int64, vector.Timestamp:
			for _, x := range []int64{-2, 0, 1, 2, 1 << 60, 1<<60 + 1} {
				out = append(out, vector.Value{Typ: typ, I: x})
			}
		case vector.Float64:
			for _, x := range append(propFloats, math.Inf(1), 1<<60) {
				out = append(out, vector.NewFloat(x))
			}
		case vector.String:
			for _, s := range propStrs {
				out = append(out, vector.NewString(s))
			}
		case vector.Bool:
			out = append(out, vector.NewBool(false), vector.NewBool(true))
		}
		return out
	}
	pairs := [][2]vector.Type{
		{vector.Int64, vector.Int64}, {vector.Int64, vector.Timestamp}, {vector.Timestamp, vector.Int64},
		{vector.Int64, vector.Float64}, {vector.Float64, vector.Int64}, {vector.Float64, vector.Float64},
		{vector.Timestamp, vector.Float64}, {vector.String, vector.String}, {vector.Bool, vector.Bool},
	}
	for _, pr := range pairs {
		ld, rd := domain(pr[0]), domain(pr[1])
		// Column l holds every left value against every right value.
		l, r := vector.New(pr[0]), vector.New(pr[1])
		for _, a := range ld {
			for _, b := range rd {
				l.AppendValue(a)
				r.AppendValue(b)
			}
		}
		for _, op := range propOps {
			check := func(form string, e Expr, cols []*vector.Vector, row func(i int) (vector.Value, vector.Value)) {
				t.Helper()
				got, err := Eval(e, cols, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", form, e, err)
				}
				for i := 0; i < got.Len(); i++ {
					a, b := row(i)
					if want := refCompare(op, a, b); got.Get(i) != want {
						t.Errorf("%s: %v %s %v = %v, want %v", form, a, op, b, got.Get(i), want)
					}
				}
			}
			lc, rc := col(0, pr[0]), col(1, pr[1])
			check("col/col", &Binary{Op: op, L: lc, R: rc}, []*vector.Vector{l, r},
				func(i int) (vector.Value, vector.Value) { return l.Get(i), r.Get(i) })
			for _, b := range rd {
				lv := vector.New(pr[0])
				for _, a := range ld {
					lv.AppendValue(a)
				}
				check("col/const", &Binary{Op: op, L: lc, R: &Const{Val: b}}, []*vector.Vector{lv},
					func(i int) (vector.Value, vector.Value) { return lv.Get(i), b })
			}
			for _, a := range ld {
				rv := vector.New(pr[1])
				for _, b := range rd {
					rv.AppendValue(b)
				}
				check("const/col", &Binary{Op: op, L: &Const{Val: a}, R: col(0, pr[1])}, []*vector.Vector{rv},
					func(i int) (vector.Value, vector.Value) { return a, rv.Get(i) })
			}
		}
	}
}

func ExampleSelect() {
	price := vector.FromFloats([]float64{990, 996, 1000, 5})
	sym := vector.FromStrings([]string{"a", "c", "b", "c"})
	// sym = 'c' OR price > 995: price is DOUBLE, 995 binds as INT.
	pred := &Binary{Op: Or,
		L: &Binary{Op: CmpEq, L: col(1, vector.String), R: &Const{Val: vector.NewString("c")}},
		R: &Binary{Op: CmpGt, L: col(0, vector.Float64), R: ci(995)}}
	keep, _ := Select(pred, []*vector.Vector{price, sym}, nil, price.Len())
	fmt.Println(keep)
	// Output: [1 2 3]
}
