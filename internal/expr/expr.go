// Package expr provides typed expression trees and their vectorized
// evaluation over columns. The planner resolves SQL expressions into these
// nodes; the executor evaluates them column-at-a-time, with SQL's
// three-valued NULL logic.
package expr

import (
	"cmp"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/vector"
)

// Expr is a resolved, typed expression.
type Expr interface {
	// Type returns the result type of the expression.
	Type() vector.Type
	// String renders the expression for plan display.
	String() string
}

// ColRef references an input column by position.
type ColRef struct {
	Index int
	Name  string
	Typ   vector.Type
}

// Type implements Expr.
func (c *ColRef) Type() vector.Type { return c.Typ }

// String implements Expr.
func (c *ColRef) String() string { return c.Name }

// Const is a literal value.
type Const struct {
	Val vector.Value
}

// Type implements Expr.
func (c *Const) Type() vector.Type { return c.Val.Typ }

// String implements Expr.
func (c *Const) String() string { return c.Val.String() }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	CmpEq
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	And
	Or
)

// String returns the SQL spelling of the operator.
func (o BinOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Mod:
		return "%"
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	case And:
		return "AND"
	case Or:
		return "OR"
	default:
		return "?"
	}
}

// IsComparison reports whether o is one of the six comparison operators.
func (o BinOp) IsComparison() bool { return o >= CmpEq && o <= CmpGe }

// CmpOp translates a comparison BinOp into the algebra operator.
func (o BinOp) CmpOp() algebra.CmpOp {
	switch o {
	case CmpEq:
		return algebra.Eq
	case CmpNe:
		return algebra.Ne
	case CmpLt:
		return algebra.Lt
	case CmpLe:
		return algebra.Le
	case CmpGt:
		return algebra.Gt
	default:
		return algebra.Ge
	}
}

// Binary applies a binary operator.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Type implements Expr.
func (b *Binary) Type() vector.Type {
	switch {
	case b.Op.IsComparison(), b.Op == And, b.Op == Or:
		return vector.Bool
	case b.Op == Div:
		return vector.Float64
	case b.Op == Mod:
		return vector.Int64
	case b.L.Type() == vector.Float64 || b.R.Type() == vector.Float64:
		return vector.Float64
	default:
		return vector.Int64
	}
}

// String implements Expr.
func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Neg negates a numeric expression.
type Neg struct{ E Expr }

// Type implements Expr.
func (n *Neg) Type() vector.Type { return n.E.Type() }

// String implements Expr.
func (n *Neg) String() string { return fmt.Sprintf("(-%s)", n.E) }

// Not inverts a boolean expression.
type Not struct{ E Expr }

// Type implements Expr.
func (n *Not) Type() vector.Type { return vector.Bool }

// String implements Expr.
func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.E) }

// IsNull tests for NULL; with Negate it is IS NOT NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// Type implements Expr.
func (n *IsNull) Type() vector.Type { return vector.Bool }

// String implements Expr.
func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}

// Eval evaluates e over the input columns, restricted to the candidate
// positions (nil means all rows). The result is aligned with cands: its
// i-th element is e applied to row cands[i]. With nil cands, column
// references may alias the inputs — callers must treat results read-only.
func Eval(e Expr, cols []*vector.Vector, cands bat.Candidates) (*vector.Vector, error) {
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	return eval(e, cols, cands, n)
}

func eval(e Expr, cols []*vector.Vector, cands bat.Candidates, n int) (*vector.Vector, error) {
	switch x := e.(type) {
	case *ColRef:
		if x.Index < 0 || x.Index >= len(cols) {
			return nil, fmt.Errorf("expr: column index %d out of range", x.Index)
		}
		if cands == nil {
			// Identity candidates: no materialization.
			return cols[x.Index], nil
		}
		return cols[x.Index].Take(cands), nil
	case *Const:
		width := n
		if cands != nil {
			width = len(cands)
		}
		return vector.Const(x.Val, width), nil
	case *Binary:
		if other, op, c, ok := constOperand(x); ok {
			v, err := eval(other, cols, cands, n)
			if err != nil {
				return nil, err
			}
			return compareConst(op, v, c), nil
		}
		l, err := eval(x.L, cols, cands, n)
		if err != nil {
			return nil, err
		}
		r, err := eval(x.R, cols, cands, n)
		if err != nil {
			return nil, err
		}
		return evalBinary(x.Op, l, r)
	case *Neg:
		v, err := eval(x.E, cols, cands, n)
		if err != nil {
			return nil, err
		}
		return evalNeg(v)
	case *Not:
		v, err := eval(x.E, cols, cands, n)
		if err != nil {
			return nil, err
		}
		out := vector.NewWithCap(vector.Bool, v.Len())
		for i := 0; i < v.Len(); i++ {
			if v.IsNull(i) {
				out.AppendNull()
			} else {
				out.AppendBool(!v.Get(i).B)
			}
		}
		return out, nil
	case *IsNull:
		v, err := eval(x.E, cols, cands, n)
		if err != nil {
			return nil, err
		}
		out := vector.NewWithCap(vector.Bool, v.Len())
		for i := 0; i < v.Len(); i++ {
			out.AppendBool(v.IsNull(i) != x.Negate)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("expr: cannot evaluate %T", e)
	}
}

func evalNeg(v *vector.Vector) (*vector.Vector, error) {
	out := vector.NewWithCap(v.Type(), v.Len())
	switch v.Type() {
	case vector.Int64:
		for i, x := range v.Ints() {
			if v.IsNull(i) {
				out.AppendNull()
			} else {
				out.AppendInt(-x)
			}
		}
	case vector.Float64:
		for i, x := range v.Floats() {
			if v.IsNull(i) {
				out.AppendNull()
			} else {
				out.AppendFloat(-x)
			}
		}
	default:
		return nil, fmt.Errorf("expr: cannot negate %s", v.Type())
	}
	return out, nil
}

func evalBinary(op BinOp, l, r *vector.Vector) (*vector.Vector, error) {
	switch {
	case op == And, op == Or:
		return evalLogic(op, l, r)
	case op.IsComparison():
		return evalCompare(op, l, r)
	default:
		return evalArith(op, l, r)
	}
}

// evalLogic implements Kleene three-valued AND/OR.
func evalLogic(op BinOp, l, r *vector.Vector) (*vector.Vector, error) {
	if l.Type() != vector.Bool || r.Type() != vector.Bool {
		return nil, fmt.Errorf("expr: %s needs boolean operands", op)
	}
	out := vector.NewWithCap(vector.Bool, l.Len())
	lb, rb := l.Bools(), r.Bools()
	for i := range lb {
		ln, rn := l.IsNull(i), r.IsNull(i)
		if op == And {
			switch {
			case !ln && !lb[i], !rn && !rb[i]:
				out.AppendBool(false) // false AND anything = false
			case ln || rn:
				out.AppendNull()
			default:
				out.AppendBool(true)
			}
			continue
		}
		switch {
		case !ln && lb[i], !rn && rb[i]:
			out.AppendBool(true) // true OR anything = true
		case ln || rn:
			out.AppendNull()
		default:
			out.AppendBool(false)
		}
	}
	return out, nil
}

// evalCompare compares two aligned columns row by row. Integer and
// timestamp columns compare as integers, float columns and strings on
// their typed slices; every loop matches compareValues.
func evalCompare(op BinOp, l, r *vector.Vector) (*vector.Vector, error) {
	c := op.CmpOp()
	ln, rn := l.Nulls(), r.Nulls()
	switch lt, rt := l.Type(), r.Type(); {
	case intLike(lt) && intLike(rt):
		return compareSlices(l.Ints(), r.Ints(), ln, rn, c), nil
	case lt == vector.Float64 && rt == vector.Float64:
		return compareSlices(l.Floats(), r.Floats(), ln, rn, c), nil
	case lt == vector.String && rt == vector.String:
		return compareSlices(l.Strings(), r.Strings(), ln, rn, c), nil
	}
	out := vector.NewWithCap(vector.Bool, l.Len())
	for i := 0; i < l.Len(); i++ {
		if l.IsNull(i) || r.IsNull(i) {
			out.AppendNull()
			continue
		}
		out.AppendBool(c.Holds(compareValues(l.Get(i), r.Get(i))))
	}
	return out, nil
}

// compareConst compares a column against a scalar constant without
// materializing the constant as a column: `v[i] op c` for every row. Type
// pairs ThetaSelect compares exactly (thetaTypes) run on its typed loops.
func compareConst(op algebra.CmpOp, v *vector.Vector, c vector.Value) *vector.Vector {
	if c.Null || !thetaTypes(v.Type(), c.Typ) {
		out := vector.NewWithCap(vector.Bool, v.Len())
		for i := 0; i < v.Len(); i++ {
			if c.Null || v.IsNull(i) {
				out.AppendNull()
				continue
			}
			out.AppendBool(op.Holds(compareValues(v.Get(i), c)))
		}
		return out
	}
	bs := make([]bool, v.Len())
	for _, p := range algebra.ThetaSelect(v, nil, op, c) {
		bs[p] = true
	}
	out := vector.FromBools(bs)
	for i, null := range v.Nulls() {
		if null {
			out.Set(i, vector.NullValue(vector.Bool))
		}
	}
	return out
}

// compareValues is the per-row definition of a comparison between two
// non-NULL values: an integer or timestamp against a float compares as
// float64, everything else by vector.Compare. A value neither below nor
// above the other compares equal, which for floats includes NaN.
func compareValues(a, b vector.Value) int {
	if a.Typ != b.Typ && (a.Typ == vector.Float64 || b.Typ == vector.Float64) && a.Typ.Numeric() && b.Typ.Numeric() {
		return compare(a.AsFloat(), b.AsFloat())
	}
	return vector.Compare(a, b)
}

// compareSlices is evalCompare over two aligned typed slices.
func compareSlices[T cmp.Ordered](l, r []T, ln, rn []bool, op algebra.CmpOp) *vector.Vector {
	holds := [3]bool{op.Holds(-1), op.Holds(0), op.Holds(1)} // by comparison result + 1
	out := vector.NewWithCap(vector.Bool, len(l))
	for i := range l {
		if ln != nil && ln[i] || rn != nil && rn[i] {
			out.AppendNull()
			continue
		}
		out.AppendBool(holds[compare(l[i], r[i])+1])
	}
	return out
}

func compare[T cmp.Ordered](x, c T) int {
	if x < c {
		return -1
	}
	if x > c {
		return 1
	}
	return 0
}

func evalArith(op BinOp, l, r *vector.Vector) (*vector.Vector, error) {
	if !l.Type().Numeric() || !r.Type().Numeric() {
		if op == Add && l.Type() == vector.String && r.Type() == vector.String {
			out := vector.NewWithCap(vector.String, l.Len())
			for i := 0; i < l.Len(); i++ {
				if l.IsNull(i) || r.IsNull(i) {
					out.AppendNull()
				} else {
					out.AppendString(l.Get(i).S + r.Get(i).S)
				}
			}
			return out, nil
		}
		return nil, fmt.Errorf("expr: %s needs numeric operands, got %s and %s", op, l.Type(), r.Type())
	}
	floatOut := op == Div || l.Type() == vector.Float64 || r.Type() == vector.Float64
	if op == Mod {
		out := vector.NewWithCap(vector.Int64, l.Len())
		for i := 0; i < l.Len(); i++ {
			if l.IsNull(i) || r.IsNull(i) || r.Get(i).AsInt() == 0 {
				out.AppendNull()
				continue
			}
			out.AppendInt(l.Get(i).AsInt() % r.Get(i).AsInt())
		}
		return out, nil
	}
	if floatOut {
		out := vector.NewWithCap(vector.Float64, l.Len())
		for i := 0; i < l.Len(); i++ {
			if l.IsNull(i) || r.IsNull(i) {
				out.AppendNull()
				continue
			}
			a, b := l.Get(i).AsFloat(), r.Get(i).AsFloat()
			switch op {
			case Add:
				out.AppendFloat(a + b)
			case Sub:
				out.AppendFloat(a - b)
			case Mul:
				out.AppendFloat(a * b)
			case Div:
				if b == 0 {
					out.AppendNull()
				} else {
					out.AppendFloat(a / b)
				}
			}
		}
		return out, nil
	}
	out := vector.NewWithCap(vector.Int64, l.Len())
	li, ri := l.Ints(), r.Ints()
	noNulls := !l.HasNulls() && !r.HasNulls()
	for i := 0; i < l.Len(); i++ {
		if !noNulls && (l.IsNull(i) || r.IsNull(i)) {
			out.AppendNull()
			continue
		}
		a, b := li[i], ri[i]
		switch op {
		case Add:
			out.AppendInt(a + b)
		case Sub:
			out.AppendInt(a - b)
		case Mul:
			out.AppendInt(a * b)
		}
	}
	return out, nil
}

// Fold performs constant folding: subtrees with only Const leaves are
// evaluated once at plan time.
func Fold(e Expr) Expr {
	switch x := e.(type) {
	case *Binary:
		l, r := Fold(x.L), Fold(x.R)
		lc, lok := l.(*Const)
		rc, rok := r.(*Const)
		if lok && rok {
			lv := vector.Const(lc.Val, 1)
			rv := vector.Const(rc.Val, 1)
			if res, err := evalBinary(x.Op, lv, rv); err == nil {
				return &Const{Val: res.Get(0)}
			}
		}
		return &Binary{Op: x.Op, L: l, R: r}
	case *Neg:
		inner := Fold(x.E)
		if c, ok := inner.(*Const); ok {
			if v, err := evalNeg(vector.Const(c.Val, 1)); err == nil {
				return &Const{Val: v.Get(0)}
			}
		}
		return &Neg{E: inner}
	case *Not:
		inner := Fold(x.E)
		if c, ok := inner.(*Const); ok && c.Val.Typ == vector.Bool {
			if c.Val.Null {
				return &Const{Val: vector.NullValue(vector.Bool)}
			}
			return &Const{Val: vector.NewBool(!c.Val.B)}
		}
		return &Not{E: inner}
	case *IsNull:
		inner := Fold(x.E)
		if c, ok := inner.(*Const); ok {
			return &Const{Val: vector.NewBool(c.Val.Null != x.Negate)}
		}
		return &IsNull{E: inner, Negate: x.Negate}
	default:
		return e
	}
}

// Columns collects the distinct column indexes referenced by e, in
// first-use order. The planner uses it for projection pruning.
func Columns(e Expr) []int {
	var out []int
	seen := map[int]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *ColRef:
			if !seen[x.Index] {
				seen[x.Index] = true
				out = append(out, x.Index)
			}
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Neg:
			walk(x.E)
		case *Not:
			walk(x.E)
		case *IsNull:
			walk(x.E)
		}
	}
	walk(e)
	return out
}

// Remap rewrites every ColRef index through the mapping (old index → new
// index). It returns a new tree; e is not modified.
func Remap(e Expr, mapping map[int]int) Expr {
	switch x := e.(type) {
	case *ColRef:
		idx, ok := mapping[x.Index]
		if !ok {
			idx = x.Index
		}
		return &ColRef{Index: idx, Name: x.Name, Typ: x.Typ}
	case *Binary:
		return &Binary{Op: x.Op, L: Remap(x.L, mapping), R: Remap(x.R, mapping)}
	case *Neg:
		return &Neg{E: Remap(x.E, mapping)}
	case *Not:
		return &Not{E: Remap(x.E, mapping)}
	case *IsNull:
		return &IsNull{E: Remap(x.E, mapping), Negate: x.Negate}
	default:
		return e
	}
}

// SplitConjuncts flattens a tree of ANDs into its conjunct list, for
// predicate pushdown.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == And {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds a conjunction from its parts; nil for empty input.
func JoinConjuncts(parts []Expr) Expr {
	if len(parts) == 0 {
		return nil
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out = &Binary{Op: And, L: out, R: p}
	}
	return out
}

// EquiKeys extracts the first equi-join conjunct of on whose sides fall
// on opposite inputs of a join with lw left columns. It returns the key
// expressions — the right-side key remapped into the right child's frame
// — and the remaining conjuncts. lkey is nil when no equi conjunct
// exists. This is the key-extraction step shared by the executor's hash
// join and the partition analyzer's co-partitioning check.
func EquiKeys(on Expr, lw int) (lkey, rkey Expr, rest []Expr) {
	for _, c := range SplitConjuncts(on) {
		if lkey == nil {
			if b, ok := c.(*Binary); ok && b.Op == CmpEq {
				lSide := sideOf(b.L, lw)
				rSide := sideOf(b.R, lw)
				if lSide == 'L' && rSide == 'R' {
					lkey, rkey = b.L, shiftRight(b.R, lw)
					continue
				}
				if lSide == 'R' && rSide == 'L' {
					lkey, rkey = b.R, shiftRight(b.L, lw)
					continue
				}
			}
		}
		rest = append(rest, c)
	}
	return lkey, rkey, rest
}

// sideOf reports 'L' if every column of e is from the left input, 'R' if
// from the right, and 'M' for mixed or column-free expressions.
func sideOf(e Expr, lw int) byte {
	cols := Columns(e)
	if len(cols) == 0 {
		return 'M'
	}
	left, right := false, false
	for _, c := range cols {
		if c < lw {
			left = true
		} else {
			right = true
		}
	}
	switch {
	case left && !right:
		return 'L'
	case right && !left:
		return 'R'
	default:
		return 'M'
	}
}

// shiftRight remaps an expression over the concatenated join frame into
// the right child's frame.
func shiftRight(e Expr, lw int) Expr {
	mapping := map[int]int{}
	for _, c := range Columns(e) {
		mapping[c] = c - lw
	}
	return Remap(e, mapping)
}
