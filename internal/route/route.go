// Package route implements the predicate index behind shared-scan
// multi-query execution: a discrimination network over the selection
// predicates of the continuous queries registered on one stream. Each
// ingested batch is matched against the index once and yields, per
// entry it reaches, the batch rows that entry's anchor selects —
// equality anchors through one pass per anchored column that groups the
// rows by bucket key, range anchors through a typed pass over the
// column, everything else through a residual list that selects every
// row. An entry whose anchor selects no row is not reached at all, and
// a reached entry's plan runs over its rows only.
//
// The index is copy-on-write: matching loads an immutable snapshot with
// one atomic read, while Add/Remove build replacement state under a
// writer mutex. Additions land in an append-only pending overlay
// (selecting every row) until the owner calls FlushIfDirty, which folds
// them into a fresh snapshot — registering N queries costs O(N), not
// O(N²).
//
// The anchor is a conjunct of the entry's predicate (for a range, the
// conjunction of the bounds on one column), and a hit's rows are exactly
// the rows where that conjunct holds under the kernel's comparison
// semantics — including NaN, which compares equal to every number. Any
// row the full predicate accepts is therefore among them; the caller
// still evaluates the full predicate on those rows, and the index only
// removes rows where one conjunct of it is false. Anything the index
// cannot normalize falls back to the residual list.
package route

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/expr"
	"repro/internal/vector"
)

// Kind classifies the anchor atom a predicate was indexed under.
type Kind uint8

// Anchor kinds.
const (
	// Residual predicates are visited on every batch (no indexable atom).
	Residual Kind = iota
	// Eq predicates anchor on one column = constant conjunct.
	Eq
	// Range predicates anchor on an interval over one numeric column.
	Range
	// Never predicates can never match (e.g. x = NULL, or an empty
	// interval); their entries are not routed at all.
	Never
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Eq:
		return "eq"
	case Range:
		return "range"
	case Never:
		return "never"
	default:
		return "residual"
	}
}

// vkey is a normalized equality-bucket key: the column's value domain
// collapsed to one comparable struct. Keys are normalized from the
// column side's declared type, so a registered constant and a batch
// value for the same column always normalize identically.
type vkey struct {
	kind uint8 // 0 int (Int64/Timestamp), 1 float, 2 string, 3 bool
	i    int64
	f    float64
	s    string
	b    bool
}

const (
	keyInt uint8 = iota
	keyFloat
	keyString
	keyBool
)

// interval is a closed bound pair over one numeric column, kept in the
// column's native domain (int64 for Int64/Timestamp, float64 for
// Float64) so routing never loses precision to a cross-domain cast.
// Strict bounds are folded in: x > 5 becomes lo=6 on an integer column
// and lo=Nextafter(5, +Inf), the least float above 5, on a float column.
// An absent side is the domain's extreme. The kernel compares NaN equal
// to every number, so a NaN row satisfies x >= c and x <= c but not
// x > c or x < c: nanOK records whether every bound folded into a float
// interval was non-strict.
type interval struct {
	isFloat  bool
	loI, hiI int64
	loF, hiF float64
	nanOK    bool // float intervals only
}

// unbounded is the interval every value of the domain lies in.
func unbounded(isFloat bool) interval {
	return interval{isFloat: isFloat, loI: math.MinInt64, hiI: math.MaxInt64,
		loF: math.Inf(-1), hiF: math.Inf(1), nanOK: true}
}

// sides counts the bounded sides, so Analyze can prefer two-sided ranges.
func (iv *interval) sides() int {
	n := 0
	if iv.loI > math.MinInt64 || iv.loF > math.Inf(-1) {
		n++
	}
	if iv.hiI < math.MaxInt64 || iv.hiF < math.Inf(1) {
		n++
	}
	return n
}

// never reports whether no value, NaN included, can fall inside iv.
func (iv *interval) never() bool {
	if iv.isFloat {
		return !iv.nanOK && iv.loF > iv.hiF
	}
	return iv.loI > iv.hiI
}

// Pred is a predicate's routing classification: the anchor atom the
// index discriminates on. Build one with Analyze.
type Pred struct {
	kind   Kind
	col    int       // anchor column (Eq/Range)
	name   string    // anchor column name, for diagnostics
	key    vkey      // Eq anchor
	iv     interval  // Range anchor
	anchor expr.Expr // the conjunct(s) key or iv encodes (Eq/Range)
}

// Kind returns the anchor classification.
func (p Pred) Kind() Kind { return p.kind }

// Describe renders the anchor for EXPLAIN output.
func (p Pred) Describe() string {
	switch p.kind {
	case Eq:
		return fmt.Sprintf("eq(%s)", p.name)
	case Range:
		return fmt.Sprintf("range(%s)", p.name)
	case Never:
		return "never"
	default:
		return "residual"
	}
}

// Analyze classifies a predicate (nil means "no filter") by extracting
// the most selective indexable anchor atom from its top-level conjuncts:
// an equality with a constant if one exists, else the intersected
// constant range over one column, else residual. A conjunct that can
// never hold (x = NULL, an empty range) makes the whole predicate Never.
func Analyze(e expr.Expr) Pred {
	if e == nil {
		return Pred{kind: Residual}
	}
	var eqAnchor *Pred
	type colRange struct {
		name  string
		iv    interval
		atoms []expr.Expr
	}
	ranges := map[int]*colRange{}
	order := []int{}
	for _, c := range expr.SplitConjuncts(e) {
		b, ok := c.(*expr.Binary)
		if !ok || !b.Op.IsComparison() {
			continue
		}
		col, cst, op, ok := comparisonAtom(b)
		if !ok {
			continue
		}
		if cst.Val.Null {
			// A comparison with NULL is never true; the conjunct — and so
			// the whole predicate — cannot match.
			return Pred{kind: Never}
		}
		if op == expr.CmpEq {
			k, st := eqKey(col.Typ, cst.Val)
			switch st {
			case atomNever:
				return Pred{kind: Never}
			case atomOK:
				if eqAnchor == nil {
					eqAnchor = &Pred{kind: Eq, col: col.Index, name: col.Name, key: k, anchor: c}
				}
			}
			continue
		}
		if op == expr.CmpNe {
			continue // excludes one value; useless as an anchor
		}
		iv, st := rangeBound(col.Typ, op, cst.Val)
		switch st {
		case atomNever:
			return Pred{kind: Never}
		case atomSkip:
			continue
		}
		cr := ranges[col.Index]
		if cr == nil {
			cr = &colRange{name: col.Name, iv: iv}
			ranges[col.Index] = cr
			order = append(order, col.Index)
		} else {
			cr.iv = intersect(cr.iv, iv)
		}
		cr.atoms = append(cr.atoms, c)
		if cr.iv.never() {
			return Pred{kind: Never}
		}
	}
	if eqAnchor != nil {
		return *eqAnchor
	}
	// Prefer the most constrained column: two-sided bounds beat one-sided.
	best := -1
	bestScore := 0
	for _, col := range order {
		if score := ranges[col].iv.sides(); score > bestScore {
			best, bestScore = col, score
		}
	}
	if best >= 0 {
		cr := ranges[best]
		return Pred{kind: Range, col: best, name: cr.name, iv: cr.iv, anchor: expr.JoinConjuncts(cr.atoms)}
	}
	return Pred{kind: Residual}
}

// comparisonAtom matches column-op-constant in either orientation,
// flipping the operator when the constant is on the left.
func comparisonAtom(b *expr.Binary) (*expr.ColRef, *expr.Const, expr.BinOp, bool) {
	if col, ok := b.L.(*expr.ColRef); ok {
		if cst, ok := b.R.(*expr.Const); ok {
			return col, cst, b.Op, true
		}
		return nil, nil, 0, false
	}
	cst, ok := b.L.(*expr.Const)
	if !ok {
		return nil, nil, 0, false
	}
	col, ok := b.R.(*expr.ColRef)
	if !ok {
		return nil, nil, 0, false
	}
	return col, cst, flip(b.Op), true
}

func flip(op expr.BinOp) expr.BinOp {
	switch op {
	case expr.CmpLt:
		return expr.CmpGt
	case expr.CmpLe:
		return expr.CmpGe
	case expr.CmpGt:
		return expr.CmpLt
	case expr.CmpGe:
		return expr.CmpLe
	default:
		return op // =, <> are symmetric
	}
}

type atomStatus uint8

const (
	atomOK atomStatus = iota
	atomSkip
	atomNever
)

// exactInt bounds the float constants compared with integer columns:
// below 2^53 in magnitude every integer converts to float64 exactly, and
// an integer beyond it converts to a float beyond the constant, so the
// kernel's float comparison and an integer bound agree on every row.
const exactInt = 1 << 53

// eqKey normalizes an equality constant into the column's value domain.
// A NaN constant equals every number under the kernel's comparison, so
// it selects every non-NULL row and cannot anchor.
func eqKey(colType vector.Type, v vector.Value) (vkey, atomStatus) {
	switch colType {
	case vector.Int64, vector.Timestamp:
		switch v.Typ {
		case vector.Int64, vector.Timestamp:
			return vkey{kind: keyInt, i: v.I}, atomOK
		case vector.Float64:
			if math.IsNaN(v.F) || math.Abs(v.F) >= exactInt {
				return vkey{}, atomSkip
			}
			if v.F != math.Trunc(v.F) {
				return vkey{}, atomNever // 3.5 never equals an integer
			}
			return vkey{kind: keyInt, i: int64(v.F)}, atomOK
		}
	case vector.Float64:
		switch v.Typ {
		case vector.Int64, vector.Timestamp, vector.Float64:
			f := v.AsFloat()
			if math.IsNaN(f) {
				return vkey{}, atomSkip
			}
			return vkey{kind: keyFloat, f: f}, atomOK
		}
	case vector.String:
		if v.Typ == vector.String {
			return vkey{kind: keyString, s: v.S}, atomOK
		}
	case vector.Bool:
		if v.Typ == vector.Bool {
			return vkey{kind: keyBool, b: v.B}, atomOK
		}
	}
	return vkey{}, atomSkip // cross-type compare the index cannot judge
}

// nanBound classifies a comparison with a NaN constant: the kernel finds
// every number equal to NaN, so x <= NaN and x >= NaN hold on every
// non-NULL row (no anchor) and x < NaN, x > NaN on none.
func nanBound(op expr.BinOp) (interval, atomStatus) {
	if op == expr.CmpLe || op == expr.CmpGe {
		return interval{}, atomSkip
	}
	return interval{}, atomNever
}

// rangeBound turns one inequality conjunct into a native-domain interval.
func rangeBound(colType vector.Type, op expr.BinOp, v vector.Value) (interval, atomStatus) {
	switch colType {
	case vector.Int64, vector.Timestamp:
		var c int64
		switch v.Typ {
		case vector.Int64, vector.Timestamp:
			c = v.I
		case vector.Float64:
			return floatBoundOnInt(op, v.F)
		default:
			return interval{}, atomSkip
		}
		iv := unbounded(false)
		switch op {
		case expr.CmpLt:
			if c == math.MinInt64 {
				return interval{}, atomNever
			}
			iv.hiI = c - 1
		case expr.CmpLe:
			iv.hiI = c
		case expr.CmpGt:
			if c == math.MaxInt64 {
				return interval{}, atomNever
			}
			iv.loI = c + 1
		case expr.CmpGe:
			iv.loI = c
		}
		return iv, atomOK
	case vector.Float64:
		if v.Typ != vector.Int64 && v.Typ != vector.Timestamp && v.Typ != vector.Float64 {
			return interval{}, atomSkip
		}
		c := v.AsFloat()
		if math.IsNaN(c) {
			return nanBound(op)
		}
		iv := unbounded(true)
		switch op {
		case expr.CmpLt:
			if math.IsInf(c, -1) {
				return interval{}, atomNever
			}
			iv.hiF, iv.nanOK = math.Nextafter(c, math.Inf(-1)), false
		case expr.CmpLe:
			iv.hiF = c
		case expr.CmpGt:
			if math.IsInf(c, 1) {
				return interval{}, atomNever
			}
			iv.loF, iv.nanOK = math.Nextafter(c, math.Inf(1)), false
		case expr.CmpGe:
			iv.loF = c
		}
		return iv, atomOK
	}
	return interval{}, atomSkip
}

// floatBoundOnInt bounds an integer column by a float constant: the
// tightest integer bound that keeps exactly the integers the kernel's
// float comparison accepts.
func floatBoundOnInt(op expr.BinOp, c float64) (interval, atomStatus) {
	if math.IsNaN(c) {
		return nanBound(op)
	}
	if math.Abs(c) >= exactInt {
		return interval{}, atomSkip
	}
	iv := unbounded(false)
	switch op {
	case expr.CmpLt: // largest int < c
		iv.hiI = int64(math.Ceil(c)) - 1
	case expr.CmpLe: // largest int <= c
		iv.hiI = int64(math.Floor(c))
	case expr.CmpGt: // smallest int > c
		iv.loI = int64(math.Floor(c)) + 1
	default: // CmpGe: smallest int >= c
		iv.loI = int64(math.Ceil(c))
	}
	return iv, atomOK
}

// intersect merges two intervals over the same column. Mixed domains
// cannot arise: the domain is a function of the column type.
func intersect(a, b interval) interval {
	a.loI, a.hiI = max(a.loI, b.loI), min(a.hiI, b.hiI)
	a.loF, a.hiF = max(a.loF, b.loF), min(a.hiF, b.hiF)
	a.nanOK = a.nanOK && b.nanOK
	return a
}

// entry is one indexed predicate with its opaque payload (the caller's
// query group).
type entry struct {
	id      uint64
	payload any
	pred    Pred
}

// state is the immutable matching structure MatchRows reads with a
// single atomic load: the discrimination network plus the pending
// overlay of entries added since the last rebuild (selecting every row).
// The network and the overlay are published together so a concurrent
// rebuild — which moves entries from the overlay into the network, or
// drops removed ones from both — can never leave a match seeing an entry
// in both places (duplicate routing) or in neither (a silently missed
// batch).
type state struct {
	eq       map[int]map[vkey][]*entry // column -> value -> entries
	rngs     []*entry
	residual []*entry
	pending  []*entry
}

var emptyState = &state{}

// Index is the predicate-routing index for one stream.
type Index struct {
	// mu serializes writers (Add/Remove/FlushIfDirty); readers go through
	// the atomic state pointer only.
	mu     sync.Mutex
	master map[uint64]*entry // all registered entries, by id (under mu)
	// pending is the overlay's backing array (under mu). Add appends to it
	// and publishes a prefix; a snapshot never reads past its prefix, and
	// a rebuild starts a fresh array instead of truncating this one, so no
	// element a published snapshot can see is ever rewritten.
	pending []*entry
	size    atomic.Int64
	st      atomic.Pointer[state]
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	ix := &Index{master: map[uint64]*entry{}}
	ix.st.Store(emptyState)
	return ix
}

// Len returns the number of registered entries (Never entries included).
func (ix *Index) Len() int { return int(ix.size.Load()) }

// Add registers a predicate under id. The entry lands in the pending
// overlay (selecting every row) until the next FlushIfDirty folds it
// into the snapshot, so registration cost stays flat in index size.
func (ix *Index) Add(id uint64, p Pred, payload any) {
	e := &entry{id: id, payload: payload, pred: p}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.master[id] = e
	ix.size.Add(1)
	if p.kind == Never {
		return // never matches; no need to route it at all
	}
	ix.pending = append(ix.pending, e)
	n := len(ix.pending)
	old := ix.st.Load()
	ix.st.Store(&state{eq: old.eq, rngs: old.rngs, residual: old.residual, pending: ix.pending[:n:n]})
}

// Remove drops the entry registered under id and publishes a rebuilt
// snapshot, so no later match can return its payload.
func (ix *Index) Remove(id uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, ok := ix.master[id]; !ok {
		return
	}
	delete(ix.master, id)
	ix.size.Add(-1)
	ix.rebuildLocked()
}

// FlushIfDirty folds pending additions into the discrimination network.
// The scan transition calls it at the top of each firing, so
// steady-state matching never pays the every-row overlay for long.
func (ix *Index) FlushIfDirty() {
	if len(ix.st.Load().pending) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if len(ix.st.Load().pending) == 0 {
		return
	}
	ix.rebuildLocked()
}

// rebuildLocked publishes a fresh state from master with an empty
// pending overlay. Caller holds mu.
func (ix *Index) rebuildLocked() {
	next := &state{eq: map[int]map[vkey][]*entry{}}
	for _, e := range ix.master {
		switch e.pred.kind {
		case Eq:
			buckets := next.eq[e.pred.col]
			if buckets == nil {
				buckets = map[vkey][]*entry{}
				next.eq[e.pred.col] = buckets
			}
			buckets[e.pred.key] = append(buckets[e.pred.key], e)
		case Range:
			next.rngs = append(next.rngs, e)
		case Residual:
			next.residual = append(next.residual, e)
		}
	}
	ix.pending = nil
	ix.st.Store(next)
}

// Hit is one entry a batch reaches: its payload and the batch rows its
// anchor selects.
type Hit struct {
	Payload any
	// Rows are the sorted view-relative positions where the anchor holds
	// (never empty); nil means every row (residual and pending entries).
	// Hits may share one list, so callers must not modify it.
	Rows bat.Candidates
}

// MatchRows appends one Hit per entry whose anchor holds on some row of
// the batch: residual and pending entries with every row, equality and
// range entries with the rows their anchor selects. Each anchored column
// is read once for all equality entries on it. Safe for concurrent use
// with Add/Remove.
func (ix *Index) MatchRows(batch bat.View, out []Hit) []Hit {
	st := ix.st.Load()
	for _, e := range st.residual {
		out = append(out, Hit{Payload: e.payload})
	}
	for _, e := range st.pending {
		out = append(out, Hit{Payload: e.payload})
	}
	for col, buckets := range st.eq {
		out = eqRows(batch, col, buckets, out)
	}
	for _, e := range st.rngs {
		if rows := rangeRows(batch, e.pred.col, &e.pred.iv); len(rows) > 0 {
			out = append(out, Hit{Payload: e.payload, Rows: rows})
		}
	}
	return out
}

// Match appends to out the payloads MatchRows reaches, without the rows.
func (ix *Index) Match(batch bat.View, out []any) []any {
	for _, h := range ix.MatchRows(batch, nil) {
		out = append(out, h.Payload)
	}
	return out
}

// eqRows groups the batch's rows by their value in one column, keeping
// only values that have a bucket, and hands each bucket's entries that
// value's rows — one pass over the column however many entries anchor
// on it. NULL rows satisfy no equality. NaN rows satisfy every one (the
// kernel compares NaN equal to every number), so they join every bucket.
func eqRows(batch bat.View, col int, buckets map[vkey][]*entry, out []Hit) []Hit {
	if len(batch.Chunks) == 0 {
		return out
	}
	g := &eqGroups{buckets: buckets}
	switch batch.Chunks[0].Cols[col].Type() {
	case vector.Int64, vector.Timestamp:
		groupColumn(g, batch, col, (*vector.Vector).Ints, func(x int64) vkey { return vkey{kind: keyInt, i: x} })
	case vector.Float64:
		groupColumn(g, batch, col, (*vector.Vector).Floats, func(x float64) vkey { return vkey{kind: keyFloat, f: x} })
	case vector.String:
		groupColumn(g, batch, col, (*vector.Vector).Strings, func(x string) vkey { return vkey{kind: keyString, s: x} })
	case vector.Bool:
		groupColumn(g, batch, col, (*vector.Vector).Bools, func(x bool) vkey { return vkey{kind: keyBool, b: x} })
	}
	if len(g.nan) > 0 {
		withNaN := make(map[vkey]bat.Candidates, len(g.groups))
		for _, gr := range g.groups {
			withNaN[gr.key] = bat.Union(gr.rows, g.nan)
		}
		for k, ents := range buckets {
			rows, ok := withNaN[k]
			if !ok {
				rows = g.nan
			}
			for _, e := range ents {
				out = append(out, Hit{Payload: e.payload, Rows: rows})
			}
		}
		return out
	}
	for _, gr := range g.groups {
		for _, e := range gr.ents {
			out = append(out, Hit{Payload: e.payload, Rows: gr.rows})
		}
	}
	return out
}

// eqGroups is eqRows' working state for one column: the rows of each
// bucket key the batch holds, and the NaN rows.
type eqGroups struct {
	buckets map[vkey][]*entry
	groups  []eqGroup
	nan     bat.Candidates
}

type eqGroup struct {
	key  vkey
	ents []*entry
	rows bat.Candidates
}

// group creates k's group and returns its index, or -1 when no entry
// anchors on k.
func (g *eqGroups) group(k vkey) int {
	ents, ok := g.buckets[k]
	if !ok {
		return -1
	}
	g.groups = append(g.groups, eqGroup{key: k, ents: ents})
	return len(g.groups) - 1
}

// groupColumn adds every row of one column to its value's group. Each
// distinct value is looked up in the buckets once; later rows find its
// group through a map keyed by the column's native type.
func groupColumn[T comparable](g *eqGroups, batch bat.View, col int, values func(*vector.Vector) []T, key func(T) vkey) {
	seen := map[T]int{}
	base := 0
	for _, ch := range batch.Chunks {
		v := ch.Cols[col]
		nulls := v.Nulls()
		for i, x := range values(v) {
			switch {
			case nulls != nil && nulls[i]:
			case x != x: // NaN; never true for non-float T
				g.nan = append(g.nan, base+i)
			default:
				s, ok := seen[x]
				if !ok {
					s = g.group(key(x))
					seen[x] = s
				}
				if s >= 0 {
					g.groups[s].rows = append(g.groups[s].rows, base+i)
				}
			}
		}
		base += ch.Len()
	}
}

// rangeRows returns the batch rows whose value in col lies inside iv,
// reading the column's native slice (no per-row boxing). NULL rows never
// qualify.
func rangeRows(batch bat.View, col int, iv *interval) bat.Candidates {
	var rows bat.Candidates
	base := 0
	for _, ch := range batch.Chunks {
		v := ch.Cols[col]
		nulls := v.Nulls()
		switch v.Type() {
		case vector.Int64, vector.Timestamp:
			lo, hi := iv.loI, iv.hiI
			for i, x := range v.Ints() {
				if x >= lo && x <= hi && (nulls == nil || !nulls[i]) {
					rows = append(rows, base+i)
				}
			}
		case vector.Float64:
			lo, hi, nanOK := iv.loF, iv.hiF, iv.nanOK
			for i, x := range v.Floats() {
				if (x >= lo && x <= hi || nanOK && x != x) && (nulls == nil || !nulls[i]) {
					rows = append(rows, base+i)
				}
			}
		}
		base += ch.Len()
	}
	return rows
}
