package expr

import (
	"repro/internal/algebra"
	"repro/internal/bat"
	"repro/internal/vector"
)

// Select returns the positions of cands (nil means all n rows) at which
// pred is TRUE, in ascending order; the result is never nil. This is how
// a WHERE clause becomes a candidate list, column-at-a-time:
//
//   - AND narrows: the right side runs over the left side's result.
//   - OR runs the right side only over the rows the left side rejected and
//     merges the two lists. A row is kept iff either side is TRUE, which
//     is exactly Kleene OR's "keep iff TRUE".
//   - A column-vs-constant comparison, at any depth and in either operand
//     order, is a typed algebra.ThetaSelect.
//   - Every other node (NOT, IS NULL, column-vs-column, arithmetic) is
//     evaluated to a Bool mask over the current candidates. NOT is never
//     taken as the complement of its operand: NOT NULL is NULL, and a
//     NULL row is rejected on both sides.
func Select(pred Expr, cols []*vector.Vector, cands bat.Candidates, n int) (bat.Candidates, error) {
	b, ok := pred.(*Binary)
	if !ok {
		return maskSelect(pred, cols, cands, n)
	}
	switch b.Op {
	case And:
		l, err := Select(b.L, cols, cands, n)
		if err != nil || len(l) == 0 {
			return l, err
		}
		return Select(b.R, cols, l, n)
	case Or:
		l, err := Select(b.L, cols, cands, n)
		if err != nil {
			return nil, err
		}
		var rejected bat.Candidates
		if cands == nil {
			rejected = bat.Complement(0, n, l)
		} else {
			rejected = bat.Difference(cands, l)
		}
		if len(rejected) == 0 {
			return l, nil
		}
		r, err := Select(b.R, cols, rejected, n)
		if err != nil {
			return nil, err
		}
		return bat.Union(l, r), nil
	}
	// An out-of-range column falls through to eval, which reports it.
	if other, op, c, ok := constOperand(b); ok {
		if cr, isCol := other.(*ColRef); isCol && thetaTypes(cr.Typ, c.Typ) && cr.Index >= 0 && cr.Index < len(cols) {
			return algebra.ThetaSelect(cols[cr.Index], cands, op, c), nil
		}
	}
	return maskSelect(pred, cols, cands, n)
}

// maskSelect is Select's fallback leaf: evaluate pred over the candidates
// and keep those whose mask entry is TRUE.
func maskSelect(pred Expr, cols []*vector.Vector, cands bat.Candidates, n int) (bat.Candidates, error) {
	mask, err := eval(pred, cols, cands, n)
	if err != nil {
		return nil, err
	}
	return algebra.MaskSelect(mask, cands), nil
}

// constOperand splits a comparison with a constant operand into
// `other op c`, mirroring the operator when the constant is on the left.
func constOperand(b *Binary) (other Expr, op algebra.CmpOp, c vector.Value, ok bool) {
	if b.Op.IsComparison() {
		if k, isConst := b.R.(*Const); isConst {
			return b.L, b.Op.CmpOp(), k.Val, true
		}
		if k, isConst := b.L.(*Const); isConst {
			return b.R, flip(b.Op.CmpOp()), k.Val, true
		}
	}
	return nil, 0, vector.Value{}, false
}

// thetaTypes reports whether ThetaSelect compares a column of type col
// with a constant of type c exactly as compareValues defines it:
// identical types, integer/timestamp pairs (compared as integers), and a
// Float64 column against an integer constant (both sides as float64). An
// integer column against a Float64 constant is not one: ThetaSelect would
// truncate the constant.
func thetaTypes(col, c vector.Type) bool {
	return col == c ||
		intLike(col) && intLike(c) ||
		col == vector.Float64 && intLike(c)
}

func intLike(t vector.Type) bool { return t == vector.Int64 || t == vector.Timestamp }

// flip mirrors a comparison for swapped operands: const op col → col op' const.
func flip(op algebra.CmpOp) algebra.CmpOp {
	switch op {
	case algebra.Lt:
		return algebra.Gt
	case algebra.Le:
		return algebra.Ge
	case algebra.Gt:
		return algebra.Lt
	case algebra.Ge:
		return algebra.Le
	default:
		return op // Eq, Ne are symmetric
	}
}
