// Streaming-join registration: the engine-side wiring that turns a
// continuous query with a JOIN into stateful incremental execution.
//
//   - A query with two basket expressions is a stream-stream join: one
//     factory (or one per shard, when both streams are co-partitioned on
//     the join key) holds symmetric hash state, so matches across
//     firings are found exactly once. JOIN ... ON ... WITHIN 'd' bounds
//     the state by event time.
//   - A query joining its stream with a table gets enrichment state: the
//     table side is materialized as a hash index rebuilt only when the
//     table's version moves. On a partitioned stream the table is
//     broadcast — each shard pipeline joins its stream subset against
//     the whole table and the emissions concatenate.
//
// Join shapes the streaming executor cannot run incrementally (non-equi,
// multi-way, windowed plans) keep the per-firing batch join.
package datacell

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/factory"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/window"
)

// planError surfaces catalog misses from planning as the engine's typed
// ErrUnknownStream, so callers can branch with errors.Is instead of
// parsing plan-layer messages.
func (e *Engine) planError(err error) error {
	if errors.Is(err, catalog.ErrNotFound) {
		return fmt.Errorf("%w: %v", ErrUnknownStream, err)
	}
	return err
}

// partitionLookup resolves a stream name to its partitioning spec — the
// lookup AnalyzeJoin uses to decide co-partitioned/broadcast execution.
func (e *Engine) partitionLookup(streamName string) (partition.Spec, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.streams[strings.ToLower(streamName)]
	if !ok || s.router == nil {
		return partition.Spec{}, false
	}
	return s.router.Spec(), true
}

// streamTableJoinBuilder recognizes a single two-way equi-join of the
// query's stream with a registered table and returns a constructor for
// per-pipeline enrichment state; nil means the query keeps per-firing
// join evaluation (no join, unsupported shape, windowed plan, or a
// chained-basket input).
func (e *Engine) streamTableJoinBuilder(p plan.Node, sel *sql.SelectStmt, streamName string, chained bool) func() (*exec.StreamJoin, error) {
	if sel.Window != nil || chained {
		return nil
	}
	shape := partition.InspectJoin(p)
	if shape.Joins != 1 {
		return nil
	}
	var side byte
	var tableChild plan.Node
	switch {
	case shape.LeftStream != nil && strings.EqualFold(shape.LeftStream.Source, streamName) && shape.RightTablesOnly:
		side, tableChild = 'L', shape.Join.R
	case shape.RightStream != nil && strings.EqualFold(shape.RightStream.Source, streamName) && shape.LeftTablesOnly:
		side, tableChild = 'R', shape.Join.L
	default:
		return nil
	}
	scans := collectScans(tableChild)
	if len(scans) != 1 {
		return nil
	}
	e.mu.Lock()
	tbl := e.tables[strings.ToLower(scans[0].Source)]
	e.mu.Unlock()
	if tbl == nil {
		return nil
	}
	node := shape.Join
	if _, err := exec.NewStreamTableJoin(node, side, tbl.Version); err != nil {
		// Non-equi (or otherwise unsupported) shape: per-firing evaluation
		// stays correct, just without cached state.
		return nil
	}
	return func() (*exec.StreamJoin, error) {
		return exec.NewStreamTableJoin(node, side, tbl.Version)
	}
}

func collectScans(n plan.Node) []*plan.Scan {
	var out []*plan.Scan
	plan.Walk(n, func(n plan.Node) {
		if sc, ok := n.(*plan.Scan); ok {
			out = append(out, sc)
		}
	})
	return out
}

// buildStreamStream builds a continuous query whose two basket
// expressions join two streams. The single factory (or one per shard
// when co-partitioned) holds symmetric hash state and fires when either
// side has arrivals.
func (e *Engine) buildStreamStream(q *Query, sel *sql.SelectStmt, streamNames []string, cfg queryConfig) error {
	a, b := streamNames[0], streamNames[1]
	if strings.EqualFold(a, b) {
		return fmt.Errorf("%w: %q; a stream-stream join needs two distinct streams", ErrSelfJoin, a)
	}
	if sel.Window != nil {
		return fmt.Errorf("%w: WINDOW over a stream-stream join; bound the join with JOIN ... WITHIN instead", ErrUnsupportedJoin)
	}
	e.mu.Lock()
	_, okA := e.streams[strings.ToLower(a)]
	_, okB := e.streams[strings.ToLower(b)]
	e.mu.Unlock()
	if !okA {
		return fmt.Errorf("%w: %q", ErrUnknownStream, a)
	}
	if !okB {
		return fmt.Errorf("%w: %q", ErrUnknownStream, b)
	}

	// The timestamp = col option is resolved at plan time, so the WITHIN
	// band, state expiry, and column pruning all agree on the event-time
	// columns.
	p, err := plan.BuildWithEventTime(sel, e.cat, cfg.tsCol)
	if err != nil {
		return e.planError(err)
	}
	shape := partition.InspectJoin(p)
	if shape.Joins != 1 || shape.LeftStream == nil || shape.RightStream == nil {
		return fmt.Errorf("%w: stream-stream queries support exactly one two-way JOIN", ErrUnsupportedJoin)
	}
	if (cfg.lateness != 0 || cfg.tsCol != "") && shape.Join.Within == 0 {
		return fmt.Errorf("%w: lateness/timestamp on a join need a JOIN ... WITHIN bound", ErrInvalidOption)
	}
	if cfg.lateness < 0 {
		return fmt.Errorf("%w: negative lateness", ErrInvalidOption)
	}
	buildState := func() (*exec.StreamJoin, error) {
		sj, err := exec.NewSymmetricJoin(shape.Join, cfg.lateness)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnsupportedJoin, err)
		}
		return sj, nil
	}

	lSrc, rSrc := shape.LeftStream.Source, shape.RightStream.Source
	e.mu.Lock()
	sL := e.streams[strings.ToLower(lSrc)]
	sR := e.streams[strings.ToLower(rSrc)]
	e.mu.Unlock()
	if sL == nil || sR == nil {
		return fmt.Errorf("%w: join scans %q and %q must both be streams", ErrUnknownStream, lSrc, rSrc)
	}
	q.streams = []string{lSrc, rSrc}
	q.out = basket.New(q.Name+"_out", p.Schema(), e.clock)

	// Co-partitioned path: both streams hash-sharded on the join key with
	// one shard count — shard i joins lSrc#i with rSrc#i, concat merge.
	// All shard states share one clock per side, so expiry tracks the
	// whole stream's progress rather than one shard's subsequence.
	if cfg.shedAt == 0 {
		if an := partition.AnalyzeJoin(p, e.partitionLookup); an.OK && !an.Broadcast {
			lClock, rClock := window.NewWatermarkGroup(), window.NewWatermarkGroup()
			err := e.buildShards(q, []*stream{sL, sR}, q.streams, p, p.Schema(), true, cfg, func(int) ([]factory.Option, error) {
				sj, err := buildState()
				if err != nil {
					return nil, err
				}
				sj.ShareClocks(lClock, rClock)
				return []factory.Option{factory.WithStreamJoin(sj)}, nil
			})
			if err != nil {
				return err
			}
			q.merge = partition.NewMerge(q.Name+"_merge", "", q.tails, q.out, nil, e.cat)
			return nil
		}
	}

	// Flat path: one symmetric factory over both streams' baskets.
	var ins []factory.Input
	for i, s := range []*stream{sL, sR} {
		if cfg.strategy == SharedBaskets {
			ins = append(ins, factory.Input{Basket: s.primary, Mode: factory.Shared, ReaderID: q.Name, Bind: q.streams[i]})
			continue
		}
		replica := e.newReplica(fmt.Sprintf("%s_in%d", q.Name, i), s, cfg)
		q.replicas = append(q.replicas, replica)
		ins = append(ins, factory.Input{Basket: replica, Mode: factory.Owned, Bind: q.streams[i]})
	}
	sj, err := buildState()
	if err != nil {
		return err
	}
	fact, err := factory.New(q.Name, p, e.cat, ins, []factory.Sink{q.out},
		factory.WithMinTuples(cfg.minTuples),
		factory.WithClock(e.clock),
		factory.WithStreamJoin(sj))
	if err != nil {
		return err
	}
	q.facts = []*factory.Factory{fact}
	return nil
}
