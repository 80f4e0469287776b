package datacell

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/adapters"
	"repro/internal/basket"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/factory"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/plan"
	"repro/internal/scheduler"
	"repro/internal/sql"
	"repro/internal/vector"
	"repro/internal/window"
)

// mergeStage is the recombination transition of a partitioned query:
// the plain concat/re-aggregation Merge, or the window-aligned
// WindowedMerge for sharded time windows.
type mergeStage interface {
	scheduler.Transition
	Lag() int
}

// Query is a registered continuous query: one or more factories between
// an input arrangement (per strategy) and an output basket with a
// subscription emitter. On a partitioned stream a partitionable query
// runs as N shard pipelines (facts) whose emissions a merge transition
// recombines into the output basket; otherwise there is exactly one
// factory.
type Query struct {
	Name     string
	SQL      string
	Strategy Strategy

	streams   []string // the stream(s) the basket expressions read (two for a stream-stream join)
	facts     []*factory.Factory
	merge     mergeStage // nil when unpartitioned
	out       *basket.Basket
	shardIns  []*basket.Basket  // stream-owned shard baskets (partitioned only)
	shardOuts []*basket.Basket  // per-shard emission baskets (non-aligned windowed merges only)
	tails     []*partition.Tail // per-shard SPSC handoff rings (plain/aligned merges)
	unsubs    []func()          // basket listener detach hooks, run by uninstall
	sub       *Subscription     // nil when the query polls via SQL
	replicas  []*basket.Basket  // separate strategy only (replicas[i] copies streams[i])
	routed    *routedQuery      // routed strategy only (shared-scan attachment)
	engine    *Engine
	durable   bool // state captured by checkpoints (durable engines only)

	// uninstalled is set under e.mu by the first uninstall, so concurrent
	// drops tear the query down once.
	uninstalled bool

	// trace is the bounded ring of the query's last-K pipeline firings
	// (SHOW TRACE). Nil when the engine's metrics are disabled.
	trace *obs.TraceRing
}

// Subscription returns the query's result subscription, or nil when the
// query was registered for SQL polling (results then accumulate in the
// <name>_out basket until a one-time SELECT consumes them).
func (q *Query) Subscription() *Subscription { return q.sub }

// Out returns the query's output basket (queryable by one-time SQL under
// the name <query>_out).
func (q *Query) Out() *basket.Basket { return q.out }

// Stats returns the factory counters, summed across shard pipelines.
// Late additionally includes partials a windowed merge had to discard
// because their window was already merged (stragglers beyond the
// declared lateness). JoinState/JoinEvictions aggregate the streaming
// join state of all pipelines (0 for join-free queries).
func (q *Query) Stats() factory.Stats {
	if q.routed != nil {
		m := q.routed.member
		return factory.Stats{
			Firings:   m.firings.Load(),
			TuplesIn:  m.tuplesIn.Load(),
			TuplesOut: m.tuplesOut.Load(),
		}
	}
	var total factory.Stats
	for _, f := range q.facts {
		st := f.Stats()
		total.Firings += st.Firings
		total.TuplesIn += st.TuplesIn
		total.TuplesOut += st.TuplesOut
		total.Late += st.Late
		total.JoinState += st.JoinState
		total.JoinEvictions += st.JoinEvictions
	}
	if lm, ok := q.merge.(interface{ Late() int64 }); ok {
		total.Late += lm.Late()
	}
	return total
}

// JoinState returns the number of rows the query's streaming join
// currently retains across all shard pipelines: both hash sides of a
// stream-stream join, the materialized table of a stream-table join. 0
// for join-free queries.
func (q *Query) JoinState() int64 { return q.Stats().JoinState }

// JoinEvictions returns the cumulative number of join-state rows expired
// behind the watermark (WITHIN-bounded joins only).
func (q *Query) JoinEvictions() int64 { return q.Stats().JoinEvictions }

// LateTuples returns the number of tuples dropped as too late across the
// query's pipelines — arrivals behind an already-emitted window boundary
// (and, for partitioned windowed queries, shard partials that surfaced
// after their window was merged). 0 for unwindowed queries.
func (q *Query) LateTuples() int64 { return q.Stats().Late }

// Watermark returns the query's event-time watermark — the boundary up
// to which window content is final, the minimum across shard pipelines.
// ok is false for unwindowed queries and before any timestamp was seen.
func (q *Query) Watermark() (int64, bool) {
	wm := int64(math.MaxInt64)
	for _, f := range q.facts {
		v, vok := f.WindowWatermark()
		if !vok {
			return 0, false
		}
		if v < wm {
			wm = v
		}
	}
	return wm, len(q.facts) > 0
}

// Latency returns the per-batch latency histogram. Shard pipelines of a
// partitioned query share one histogram, so this is always the whole
// query's distribution.
func (q *Query) Latency() *obs.Histogram {
	if q.routed != nil {
		return q.routed.member.latency
	}
	return q.facts[0].Latency
}

// Shards returns the number of parallel shard pipelines executing the
// query (1 for an unpartitioned query).
func (q *Query) Shards() int {
	if q.routed != nil {
		return 1
	}
	return len(q.facts)
}

// Partitioned reports whether the query runs as shard pipelines with a
// merge transition.
func (q *Query) Partitioned() bool { return q.merge != nil }

// MergeLag returns the number of shard-emitted tuples not yet merged
// into the output basket (0 for unpartitioned queries).
func (q *Query) MergeLag() int {
	if q.merge == nil {
		return 0
	}
	return q.merge.Lag()
}

// Shed returns the number of tuples load shedding evicted from this
// query's private input basket(s).
func (q *Query) Shed() int64 {
	var n int64
	for _, r := range q.replicas {
		n += r.Shed()
	}
	return n
}

// InputBacklog returns the number of tuples currently buffered in the
// query's input arrangement: the private replica(s) under the separate
// strategy, the stream's shard baskets when partitioned, or the whole
// shared basket(s) otherwise. Retained predicate-window tuples show up
// here.
func (q *Query) InputBacklog() int {
	if len(q.replicas) > 0 {
		n := 0
		for _, r := range q.replicas {
			n += r.Len()
		}
		return n
	}
	if len(q.shardIns) > 0 {
		n := 0
		for _, b := range q.shardIns {
			n += b.Len()
		}
		return n
	}
	n := 0
	for _, name := range q.streams {
		if b, err := q.engine.Stream(name); err == nil {
			n += b.Len()
		}
	}
	return n
}

// QueryOption configures RegisterContinuous.
type QueryOption func(*queryConfig)

type queryConfig struct {
	strategy   Strategy
	minTuples  int
	windowMode window.Mode
	forceMode  bool
	subDepth   int
	priority   int
	shedAt     int
	policy     Backpressure
	lateness   int64  // out-of-order tolerance of WINDOW RANGE, ns
	tsCol      string // event-time column for WINDOW RANGE ("" = arrival ts)
	durable    bool   // include operator state in checkpoints (default true)
	ckptEvery  int64  // requested checkpoint cadence, ns (0 = engine default)
}

// WithStrategy selects the basket arrangement (default SeparateBaskets,
// the paper's first strategy).
func WithStrategy(s Strategy) QueryOption {
	return func(c *queryConfig) { c.strategy = s }
}

// WithMinTuples sets the factory's firing threshold.
func WithMinTuples(n int) QueryOption {
	return func(c *queryConfig) { c.minTuples = n }
}

// WithWindowMode pins the window evaluation strategy; without it, windowed
// queries use incremental evaluation when the plan shape allows and fall
// back to re-evaluation otherwise.
func WithWindowMode(m window.Mode) QueryOption {
	return func(c *queryConfig) { c.windowMode = m; c.forceMode = true }
}

// WithSubscriptionDepth sizes the result channel (default 64).
func WithSubscriptionDepth(n int) QueryOption {
	return func(c *queryConfig) { c.subDepth = n }
}

// WithSQLPolling disables the subscription emitter: results accumulate in
// the <name>_out basket until a one-time SELECT (or another continuous
// query) consumes them — the paper's network-of-queries usage, where one
// query's output basket is another's input.
func WithSQLPolling() QueryOption {
	return func(c *queryConfig) { c.subDepth = 0 }
}

// WithPriority schedules this query's factory ahead of lower-priority
// transitions (default 0) — the paper's "different query priorities".
func WithPriority(p int) QueryOption {
	return func(c *queryConfig) { c.priority = p }
}

// WithLoadShedding bounds the query's private input basket to n tuples:
// arrivals beyond it evict the oldest unprocessed tuples (the paper's
// load-shedding requirement under overload). Only meaningful with the
// separate-baskets strategy, where the query owns its basket.
func WithLoadShedding(n int) QueryOption {
	return func(c *queryConfig) { c.shedAt = n }
}

// WithBackpressure selects what the subscription does when its consumer
// falls behind (default BackpressureBlock).
func WithBackpressure(p Backpressure) QueryOption {
	return func(c *queryConfig) { c.policy = p }
}

// WithLateness sets the out-of-order tolerance of a time-based window
// (lateness = ...): the watermark trails the maximum seen timestamp by
// d, so tuples up to d behind the stream's progress still land in their
// windows; anything older is counted late and dropped.
func WithLateness(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.lateness = d.Nanoseconds() }
}

// WithDurable includes or excludes the query's operator state from
// checkpoints (durable = true | false; default true). A non-durable
// query on a durable engine is re-created by DDL replay but restarts
// with empty state and no delivery suppression.
func WithDurable(durable bool) QueryOption {
	return func(c *queryConfig) { c.durable = durable }
}

// WithCheckpointInterval tightens the engine's background checkpoint
// cadence to at most d while this query is registered
// (checkpoint_interval = ...). Zero keeps the engine default.
func WithCheckpointInterval(d time.Duration) QueryOption {
	return func(c *queryConfig) { c.ckptEvery = d.Nanoseconds() }
}

// WithEventTimeColumn slices a time-based window by the named stream
// column (timestamp = ...) instead of the implicit arrival stamp. The
// column must be INT or TIMESTAMP. Event-time windows advance on data
// only: the wall clock never closes them.
func WithEventTimeColumn(col string) QueryOption {
	return func(c *queryConfig) { c.tsCol = col }
}

// optionsFromSpecs translates a DDL WITH (...) list into QueryOptions —
// the bridge that lets CREATE CONTINUOUS QUERY express everything the Go
// option API can.
func optionsFromSpecs(specs []sql.OptionSpec) ([]QueryOption, error) {
	var opts []QueryOption
	intOpt := func(s sql.OptionSpec, f func(int) QueryOption) error {
		n, err := strconv.Atoi(s.Val)
		if err != nil {
			return fmt.Errorf("%w: %s = %q wants an integer", ErrInvalidOption, s.Key, s.Val)
		}
		opts = append(opts, f(n))
		return nil
	}
	for _, s := range specs {
		key := strings.ToLower(s.Key)
		val := strings.ToLower(s.Val)
		switch key {
		case "strategy":
			switch val {
			case "separate":
				opts = append(opts, WithStrategy(SeparateBaskets))
			case "shared":
				opts = append(opts, WithStrategy(SharedBaskets))
			case "routed":
				opts = append(opts, WithStrategy(RoutedScan))
			default:
				return nil, fmt.Errorf("%w: strategy = %q (want separate, shared, or routed)", ErrInvalidOption, s.Val)
			}
		case "min_tuples":
			if err := intOpt(s, WithMinTuples); err != nil {
				return nil, err
			}
		case "window_mode":
			switch val {
			case "incremental":
				opts = append(opts, WithWindowMode(window.Incremental))
			case "reeval", "re_evaluate", "reevaluate":
				opts = append(opts, WithWindowMode(window.ReEvaluate))
			default:
				return nil, fmt.Errorf("%w: window_mode = %q (want incremental or reeval)", ErrInvalidOption, s.Val)
			}
		case "priority":
			if err := intOpt(s, WithPriority); err != nil {
				return nil, err
			}
		case "shed_limit":
			if err := intOpt(s, WithLoadShedding); err != nil {
				return nil, err
			}
		case "depth", "subscription_depth":
			if err := intOpt(s, WithSubscriptionDepth); err != nil {
				return nil, err
			}
		case "polling":
			switch val {
			case "true":
				opts = append(opts, WithSQLPolling())
			case "false":
			default:
				return nil, fmt.Errorf("%w: polling = %q (want true or false)", ErrInvalidOption, s.Val)
			}
		case "backpressure":
			switch val {
			case "block":
				opts = append(opts, WithBackpressure(BackpressureBlock))
			case "drop_oldest":
				opts = append(opts, WithBackpressure(BackpressureDropOldest))
			default:
				return nil, fmt.Errorf("%w: backpressure = %q (want block or drop_oldest)", ErrInvalidOption, s.Val)
			}
		case "lateness":
			ns, err := parseDurationNS(s.Val)
			if err != nil || ns < 0 {
				return nil, fmt.Errorf("%w: lateness = %q (want a non-negative duration like '250ms' or nanoseconds)", ErrInvalidOption, s.Val)
			}
			opts = append(opts, func(c *queryConfig) { c.lateness = ns })
		case "timestamp":
			if s.Val == "" {
				return nil, fmt.Errorf("%w: timestamp needs a column name", ErrInvalidOption)
			}
			opts = append(opts, WithEventTimeColumn(s.Val))
		case "durable":
			switch val {
			case "true":
				opts = append(opts, WithDurable(true))
			case "false":
				opts = append(opts, WithDurable(false))
			default:
				return nil, fmt.Errorf("%w: durable = %q (want true or false)", ErrInvalidOption, s.Val)
			}
		case "checkpoint_interval":
			ns, err := parseDurationNS(s.Val)
			if err != nil || ns <= 0 {
				return nil, fmt.Errorf("%w: checkpoint_interval = %q (want a positive duration like '5s' or nanoseconds)", ErrInvalidOption, s.Val)
			}
			opts = append(opts, WithCheckpointInterval(time.Duration(ns)))
		default:
			return nil, fmt.Errorf("%w: unknown option %q", ErrInvalidOption, s.Key)
		}
	}
	return opts, nil
}

// parseDurationNS reads a WITH duration value: a bare integer is
// nanoseconds, anything else goes through time.ParseDuration (quoted in
// DDL, e.g. lateness = '250ms').
func parseDurationNS(val string) (int64, error) {
	if ns, err := strconv.ParseInt(val, 10, 64); err == nil {
		return ns, nil
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, err
	}
	return d.Nanoseconds(), nil
}

// RegisterContinuous compiles and installs a continuous query — the Go
// equivalent of CREATE CONTINUOUS QUERY (both run the same registration
// path). The query must contain exactly one basket expression (the paper's
// continuous marker); the referenced basket must be a stream created with
// CreateStream. The query's results land in a basket named <name>_out and
// on the subscription.
func (e *Engine) RegisterContinuous(name, text string, opts ...QueryOption) (*Query, error) {
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	q, err := e.registerParsed(name, text, sel, opts...)
	if err != nil {
		return nil, err
	}
	if e.dur != nil {
		cfg := defaultQueryConfig()
		for _, o := range opts {
			o(&cfg)
		}
		if err := e.dur.logStmt(context.Background(), continuousDDL(name, text, cfg), true); err != nil {
			return q, err
		}
	}
	return q, nil
}

func defaultQueryConfig() queryConfig {
	return queryConfig{strategy: SeparateBaskets, minTuples: 1, subDepth: 64, durable: true}
}

// continuousDDL synthesizes the journal spelling of a Go-registered
// continuous query. Every QueryOption has a WITH equivalent, so the
// replayed DDL reconstructs the same pipeline shape — a requirement for
// checkpoint images to load (replica and shard counts must match).
func continuousDDL(name, text string, cfg queryConfig) string {
	def := defaultQueryConfig()
	var opts []string
	add := func(k, v string) { opts = append(opts, k+" = "+v) }
	if cfg.strategy != def.strategy {
		add("strategy", cfg.strategy.String())
	}
	if cfg.minTuples != def.minTuples {
		add("min_tuples", strconv.Itoa(cfg.minTuples))
	}
	if cfg.forceMode {
		if cfg.windowMode == window.Incremental {
			add("window_mode", "incremental")
		} else {
			add("window_mode", "reeval")
		}
	}
	if cfg.priority != def.priority {
		add("priority", strconv.Itoa(cfg.priority))
	}
	if cfg.shedAt != def.shedAt {
		add("shed_limit", strconv.Itoa(cfg.shedAt))
	}
	if cfg.subDepth <= 0 {
		add("polling", "true")
	} else if cfg.subDepth != def.subDepth {
		add("depth", strconv.Itoa(cfg.subDepth))
	}
	if cfg.policy != def.policy {
		add("backpressure", "drop_oldest")
	}
	if cfg.lateness != def.lateness {
		add("lateness", strconv.FormatInt(cfg.lateness, 10))
	}
	if cfg.tsCol != "" {
		add("timestamp", cfg.tsCol)
	}
	if cfg.durable != def.durable {
		add("durable", "false")
	}
	if cfg.ckptEvery > 0 {
		add("checkpoint_interval", strconv.FormatInt(cfg.ckptEvery, 10))
	}
	s := "CREATE CONTINUOUS QUERY " + name
	if len(opts) > 0 {
		s += " WITH (" + strings.Join(opts, ", ") + ")"
	}
	return s + " AS " + text
}

// registerParsed is the single registration path behind both
// RegisterContinuous and CREATE CONTINUOUS QUERY: claim the name, build
// the query for its shape, install it. A failure at any step is undone
// by uninstall, which also releases the claim.
func (e *Engine) registerParsed(name, text string, sel *sql.SelectStmt, opts ...QueryOption) (*Query, error) {
	if err := e.guard(nil); err != nil {
		return nil, err
	}
	cfg := defaultQueryConfig()
	for _, o := range opts {
		o(&cfg)
	}
	// Claim the name before any side effect: building a shared-input
	// factory registers a reader mark under the query's name, which a
	// race loser's cleanup would otherwise strip from the winner.
	key := strings.ToLower(name)
	e.mu.Lock()
	_, dup := e.queries[key]
	_, claimed := e.reserved[key]
	if !dup && !claimed {
		e.reserved[key] = struct{}{}
	}
	e.mu.Unlock()
	if dup || claimed {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateQuery, name)
	}
	q := &Query{Name: name, SQL: text, Strategy: cfg.strategy, engine: e}
	err := e.build(q, sel, cfg)
	if err == nil {
		err = e.install(q, cfg)
	}
	if err != nil {
		e.uninstall(q)
		return nil, err
	}
	return q, nil
}

// build constructs the query's topology for its shape — baskets, shard
// tails, factories, merge, routed-scan group info — and publishes
// nothing: until install, no ingest, scheduler or catalog path can reach
// what it built. The one side effect is the reader mark a shared-input
// factory leaves on its input basket, which uninstall's Close releases.
func (e *Engine) build(q *Query, sel *sql.SelectStmt, cfg queryConfig) error {
	if !sel.IsContinuous() {
		return fmt.Errorf("%w: %q; run it with Exec", ErrNotContinuous, q.Name)
	}
	streamNames, err := basketExprStreams(sel)
	if err != nil {
		return err
	}
	if len(streamNames) == 2 {
		// Two basket expressions: a stream-stream join, executed by a
		// symmetric-hash factory (one per shard when co-partitioned).
		return e.buildStreamStream(q, sel, streamNames, cfg)
	}
	streamName := streamNames[0]
	q.streams = []string{streamName}
	e.mu.Lock()
	s, isStream := e.streams[strings.ToLower(streamName)]
	e.mu.Unlock()

	// The basket expression may also read another query's output basket —
	// the paper's network of queries, where "continuous queries … take
	// their input from other queries".
	var chained *basket.Basket
	if !isStream {
		entry, err := e.cat.Lookup(streamName)
		if err != nil {
			return fmt.Errorf("%w: basket expression reads %q, which is neither a stream nor a basket", ErrUnknownStream, streamName)
		}
		b, ok := entry.Source.(*basket.Basket)
		if !ok || entry.Kind != catalog.KindBasket {
			return fmt.Errorf("%w: basket expression over %q, which is a %s", ErrUnknownStream, streamName, entry.Kind)
		}
		chained = b
	}

	p, err := plan.Build(sel, e.cat)
	if err != nil {
		return e.planError(err)
	}
	q.out = basket.New(q.Name+"_out", p.Schema(), e.clock)

	if cfg.lateness != 0 || cfg.tsCol != "" {
		if sel.Window == nil || sel.Window.Kind != sql.WindowRange {
			return fmt.Errorf("%w: lateness/timestamp apply to WINDOW RANGE queries only", ErrInvalidOption)
		}
		if cfg.lateness < 0 {
			return fmt.Errorf("%w: negative lateness", ErrInvalidOption)
		}
	}

	// Stream-table join: when the plan is a single two-way equi-join of
	// this stream with a table, the factory gets persistent enrichment
	// state — a table-side hash rebuilt only when the table's version
	// moves — instead of re-running a batch join per firing. Other join
	// shapes (non-equi, multi-way, windowed) keep per-firing evaluation.
	joinBuilder := e.streamTableJoinBuilder(p, sel, streamName, chained != nil)

	// Routed path: eligible filter/project pipelines over a stream attach
	// to the stream's shared scan — one consumption frontier, predicate-
	// indexed routing, one evaluation per distinct subplan — instead of a
	// private pipeline; install makes the query a member of its plan
	// group. Ineligible shapes (windows, joins, chained baskets,
	// shedding, batching, filtered consuming scans) and partitioned
	// streams (ingest routes to shard baskets; a shared scan on the
	// primary would retain and duplicate every tuple alongside the shard
	// copies) fall back to the shared-basket arrangement below.
	if cfg.strategy == RoutedScan {
		if info, ok := routedPlanInfo(p, streamName); ok &&
			isStream && s.router == nil && chained == nil && joinBuilder == nil &&
			sel.Window == nil && cfg.shedAt == 0 && cfg.minTuples == 1 {
			q.routed = &routedQuery{info: info}
			return nil
		}
		cfg.strategy = SharedBaskets
		q.Strategy = SharedBaskets
	}

	// Partitioned path: on a partitioned stream, a partitionable query is
	// cloned into one pipeline per shard with a merge transition
	// recombining the emissions. Time-based windows shard when their plan
	// has mergeable pane summaries (the shards share one slide grid, so
	// the merge can align window boundaries); count windows are defined
	// over the whole stream's arrival order and stay single-pipeline, as
	// do queries with a private shedding bound (shard baskets are shared
	// between the stream's partitioned queries).
	if isStream && s.router != nil && cfg.shedAt == 0 {
		if sel.Window == nil {
			if joinBuilder != nil {
				// Stream×table: broadcast the table to every shard — each
				// stream tuple lives in exactly one shard, so the
				// concatenated emissions are exact regardless of the key.
				if an := partition.AnalyzeJoin(p, e.partitionLookup); an.OK && an.Broadcast {
					return e.buildPartitioned(q, s, partition.Analysis{OK: true, Mode: partition.MergeConcat, ShardPlan: p}, cfg, joinBuilder)
				}
			} else if an := partition.Analyze(p, streamName, s.router.Spec().By, q.Name+"#partials"); an.OK {
				return e.buildPartitioned(q, s, an, cfg, nil)
			}
		} else if wan := partition.AnalyzeWindowed(p, streamName, s.router.Spec().By, q.Name+"#partials", sel.Window); wan.OK {
			return e.buildPartitionedWindowed(q, s, p, wan, sel.Window, cfg)
		}
	}

	// Input arrangement per strategy.
	var in factory.Input
	switch {
	case chained != nil && cfg.strategy == SharedBaskets:
		in = factory.Input{Basket: chained, Mode: factory.Shared, ReaderID: q.Name, Bind: streamName}
	case chained != nil:
		// Owned-direct: this query is the exclusive consumer of the
		// upstream basket (no receptor fan-out exists to replicate it).
		in = factory.Input{Basket: chained, Mode: factory.Owned, Bind: streamName}
	case cfg.strategy == SharedBaskets:
		in = factory.Input{Basket: s.primary, Mode: factory.Shared, ReaderID: q.Name, Bind: streamName}
	default:
		q.replicas = []*basket.Basket{e.newReplica(q.Name+"_in", s, cfg)}
		in = factory.Input{Basket: q.replicas[0], Mode: factory.Owned, Bind: streamName}
	}

	fopts := []factory.Option{
		factory.WithMinTuples(cfg.minTuples),
		factory.WithClock(e.clock),
	}
	if sel.Window != nil {
		runner, err := e.buildWindowRunner(p, in.Basket.Schema(), streamName, sel.Window, cfg)
		if err != nil {
			return err
		}
		fopts = append(fopts, factory.WithWindow(runner))
	}
	if joinBuilder != nil {
		sj, err := joinBuilder()
		if err != nil {
			return err
		}
		fopts = append(fopts, factory.WithStreamJoin(sj))
	}
	fact, err := factory.New(q.Name, p, e.cat, []factory.Input{in}, []factory.Sink{q.out}, fopts...)
	if err != nil {
		return err
	}
	q.facts = []*factory.Factory{fact}
	return nil
}

// newReplica builds a separate-strategy query's private copy of a
// stream; install adds it to the stream's fan-out.
func (e *Engine) newReplica(name string, s *stream, cfg queryConfig) *basket.Basket {
	r := basket.New(name, s.schema, e.clock)
	if cfg.shedAt > 0 {
		r.SetCapacity(cfg.shedAt)
	}
	return r
}

// buildShards adds one pipeline per shard to a partitioned query: shard
// i's factory reads shard i of every input stream in shared mode (so a
// stream's partitioned queries share one routed copy) and emits into
// <name>_out#i — an SPSC tail for plain and aligned merges, a basket
// when tails is false (non-aligned windowed merges bucket partials by
// window end). All pipelines share one latency histogram; extra supplies
// shard i's per-pipeline state (join or window) as factory options.
func (e *Engine) buildShards(q *Query, ins []*stream, srcs []string, p plan.Node, sinkSchema *catalog.Schema, tails bool, cfg queryConfig, extra func(i int) ([]factory.Option, error)) error {
	q.streams = srcs
	for _, s := range ins {
		q.shardIns = append(q.shardIns, s.shards...)
	}
	latency := obs.NewHistogram()
	for i := range ins[0].shards {
		inputs := make([]factory.Input, len(ins))
		for j, s := range ins {
			inputs[j] = factory.Input{Basket: s.shards[i], Mode: factory.Shared, ReaderID: q.Name, Bind: srcs[j]}
		}
		sinkName := fmt.Sprintf("%s_out#%d", q.Name, i)
		var sink factory.Sink
		if tails {
			t := partition.NewTail(sinkName, sinkSchema, tailRingBatches, e.clock)
			q.tails = append(q.tails, t)
			sink = t
		} else {
			b := basket.New(sinkName, sinkSchema, e.clock)
			q.shardOuts = append(q.shardOuts, b)
			sink = b
		}
		fopts := []factory.Option{
			factory.WithMinTuples(cfg.minTuples),
			factory.WithClock(e.clock),
			factory.WithLatency(latency),
		}
		more, err := extra(i)
		if err != nil {
			return err
		}
		f, err := factory.New(fmt.Sprintf("%s#%d", q.Name, i), p, e.cat, inputs, []factory.Sink{sink}, append(fopts, more...)...)
		if err != nil {
			return err
		}
		q.facts = append(q.facts, f)
	}
	return nil
}

// shardSinks returns the per-shard emission places (<name>_out#i) of a
// partitioned query, in shard order.
func (q *Query) shardSinks() []catalog.Source {
	var out []catalog.Source
	for _, t := range q.tails {
		out = append(out, t)
	}
	for _, b := range q.shardOuts {
		out = append(out, b)
	}
	return out
}

// install publishes a built query. It is the one place that makes a query
// visible: catalog entries for <name>_out and the shard sinks, the
// routed-scan membership, the subscription, scheduler transitions, and
// finally — under e.mu, in one step with consuming the name claim — the
// replica fan-out, the shard-reader counts and the e.queries entry. A
// failure leaves whatever was published for uninstall to undo.
func (e *Engine) install(q *Query, cfg queryConfig) error {
	if err := e.cat.Register(q.Name+"_out", catalog.KindBasket, q.out); err != nil {
		return fmt.Errorf("%w: %q", ErrDuplicateName, q.Name+"_out")
	}
	for i, so := range q.shardSinks() {
		name := fmt.Sprintf("%s_out#%d", q.Name, i)
		if err := e.cat.RegisterShard(name, catalog.KindBasket, so, q.Name+"_out", i); err != nil {
			return fmt.Errorf("%w: %q", ErrDuplicateName, name)
		}
	}
	if r := q.routed; r != nil {
		s, err := e.lookupStream(q.streams[0])
		if err != nil {
			return err
		}
		r.scan, r.group, r.member = e.attachRouted(s, q.Name, r.info, q.out, cfg.priority)
	}
	if cfg.subDepth > 0 {
		q.sub = newSubscription(e, adapters.NewChannelEmitter(q.Name+"_emit", q.out, cfg.subDepth, cfg.policy))
	}
	e.scheduleQuery(q, cfg)

	e.mu.Lock()
	defer e.mu.Unlock()
	ins := e.streamsLocked(q)
	for i, s := range ins {
		if s == nil && (i < len(q.replicas) || q.merge != nil) {
			return fmt.Errorf("%w: %q was dropped during registration", ErrUnknownStream, q.streams[i])
		}
	}
	for i, r := range q.replicas {
		// Copy-on-write: Ingest's fan-out reads the slice outside e.mu, so
		// published slices are never extended or reordered in place.
		ins[i].replicas = append(slices.Clone(ins[i].replicas), r)
	}
	if q.merge != nil {
		// Shard routing starts once a stream has a partitioned reader.
		for _, s := range ins {
			s.shardReaders++
		}
	}
	key := strings.ToLower(q.Name)
	delete(e.reserved, key)
	e.queries[key] = q
	return nil
}

// streamsLocked resolves the streams a query reads, in q.streams order
// (nil for a chained query's upstream basket). Caller holds e.mu.
func (e *Engine) streamsLocked(q *Query) []*stream {
	ins := make([]*stream, len(q.streams))
	for i, name := range q.streams {
		ins[i] = e.streams[strings.ToLower(name)]
	}
	return ins
}

// uninstall is install's exact inverse. It serves both a failed
// registration (undoing whatever build and install got to) and DROP
// CONTINUOUS QUERY. A published query is withdrawn under e.mu with its
// name held claimed until the teardown completes, so a re-registration
// never meets its leftover catalog entries; catalog entries are dropped
// only while they still name this query's baskets, so a registration
// that lost a name never drops the holder's entry. It reports false when
// another caller already uninstalled q.
func (e *Engine) uninstall(q *Query) bool {
	key := strings.ToLower(q.Name)
	e.mu.Lock()
	if q.uninstalled {
		e.mu.Unlock()
		return false
	}
	q.uninstalled = true
	if e.queries[key] == q {
		delete(e.queries, key)
		e.reserved[key] = struct{}{}
		for i, s := range e.streamsLocked(q) {
			if s == nil {
				continue
			}
			if i < len(q.replicas) {
				mine := q.replicas[i]
				s.replicas = slices.DeleteFunc(slices.Clone(s.replicas), func(r *basket.Basket) bool { return r == mine })
			}
			if q.merge != nil {
				s.shardReaders--
			}
		}
	}
	e.mu.Unlock()
	// Detach the targeted wake-ups first: once the listeners are gone, no
	// append can re-enqueue the transitions the removals below tear down.
	for _, unsub := range q.unsubs {
		unsub()
	}
	q.unsubs = nil
	if r := q.routed; r != nil && r.member != nil {
		// Detach from the shared scan (and tear the scan transition down
		// when this was its last member) before dropping the out basket.
		e.dropRouted(q)
	}
	for _, t := range q.tails {
		t.SetWake(nil)
	}
	for _, f := range q.facts {
		e.sched.Remove(f.Name())
		// Close releases shared-reader marks, so shard (or shared)
		// baskets compact tuples only this query was retaining.
		f.Close()
	}
	if q.merge != nil {
		e.sched.Remove(q.merge.Name())
	}
	if q.sub != nil {
		q.sub.closeWith(ErrSubscriptionClosed)
	}
	for i, so := range q.shardSinks() {
		e.dropOwned(fmt.Sprintf("%s_out#%d", q.Name, i), so)
	}
	e.dropOwned(q.Name+"_out", q.out)
	e.mu.Lock()
	delete(e.reserved, key)
	e.mu.Unlock()
	return true
}

// dropOwned removes a catalog entry only while it still names src.
func (e *Engine) dropOwned(name string, src catalog.Source) {
	if entry, err := e.cat.Lookup(name); err == nil && entry.Source == src {
		_ = e.cat.Drop(name)
	}
}

// scheduleQuery is install's scheduling step: durability wiring (the
// delivery-frontier hook for exactly-once resumption, plus any
// checkpoint-cadence tightening), then scheduler registration — with
// gate-wrapped transitions on a durable engine so checkpoints cut
// between firings, never through one. Each transition's input places
// are subscribed to its scheduler handle, so an append wakes exactly
// the transitions it can make fireable instead of rescanning the net;
// the detach hooks accumulate in q.unsubs for uninstall.
func (e *Engine) scheduleQuery(q *Query, cfg queryConfig) {
	q.durable = cfg.durable && e.dur != nil
	if q.durable {
		if q.sub != nil {
			key := strings.ToLower(q.Name)
			q.sub.em.OnDeliver(func(n int64) { e.dur.logFrontier(key, n) })
		}
		e.dur.tighten(time.Duration(cfg.ckptEvery))
	}
	// Observability arming must precede scheduling: hooks are not
	// synchronized with firings once a transition is registered.
	e.armQueryObservers(q)
	for _, f := range q.facts {
		h := e.addTransition(f, cfg.priority)
		e.observeStage(q, h, stageFire, f.Name(), factoryDelta(f))
		for _, in := range f.InputBaskets() {
			q.subscribe(in, h)
		}
	}
	if q.merge != nil {
		h := e.addTransition(q.merge, cfg.priority)
		var delta func() (int64, int64)
		if m, ok := q.merge.(interface{ Merged() int64 }); ok {
			delta = counterDelta(m.Merged)
		}
		e.observeStage(q, h, stageMerge, q.merge.Name(), delta)
		if m, ok := q.merge.(*partition.Merge); ok {
			// Plain/aligned merges consume SPSC tails: the producer-side
			// push invokes the wake hook directly, no basket listener.
			m.SetWake(h.Wake)
		}
		for _, so := range q.shardOuts {
			q.subscribe(so, h)
		}
	}
	if q.sub != nil {
		h := e.addTransition(q.sub.em, cfg.priority)
		e.observeStage(q, h, stageDeliver, q.sub.em.Name(), counterDelta(q.sub.em.Delivered))
		q.subscribe(q.out, h)
	}
}

// subscribe wires a basket append to a transition wake-up and records the
// detach hook for uninstall.
func (q *Query) subscribe(b *basket.Basket, h *scheduler.Handle) {
	id := b.Subscribe(h.Wake)
	q.unsubs = append(q.unsubs, func() { b.Unsubscribe(id) })
}

// CheckpointInfo reports a query's durability posture (see
// Query.Checkpoint).
type CheckpointInfo struct {
	// Durable reports whether checkpoints capture this query's state.
	Durable bool
	// LastCheckpoint is when the engine last checkpointed (zero before
	// the first checkpoint or on a non-durable engine).
	LastCheckpoint time.Time
	// ReplayLag is the number of WAL records a crash right now would
	// replay (engine-wide, 0 when not durable).
	ReplayLag int64
	// Delivered is the cumulative number of result tuples the query's
	// subscription has delivered.
	Delivered int64
}

// Checkpoint returns the query's durability posture: whether its state
// is checkpointed, when the last checkpoint ran, the replay lag a crash
// would incur, and the delivery frontier.
func (q *Query) Checkpoint() CheckpointInfo {
	snap := q.engine.dur.snapshot()
	info := CheckpointInfo{
		Durable:        q.durable,
		LastCheckpoint: snap.ckptTime,
		ReplayLag:      snap.replayLag(),
	}
	if q.sub != nil {
		info.Delivered = q.sub.em.Delivered()
	}
	return info
}

// buildPartitioned builds a continuous query as N shard pipelines over
// the stream's shard baskets, each running the analysis' shard plan,
// plus a merge transition recombining the emissions into <name>_out —
// order-preserving per shard, with a global distinct/re-aggregation
// stage when the analysis requires one. joinBuilder, when non-nil,
// gives every shard factory its own stream-table join state (the
// broadcast decomposition).
func (e *Engine) buildPartitioned(q *Query, s *stream, an partition.Analysis, cfg queryConfig, joinBuilder func() (*exec.StreamJoin, error)) error {
	err := e.buildShards(q, []*stream{s}, q.streams, an.ShardPlan, an.ShardPlan.Schema(), true, cfg, func(int) ([]factory.Option, error) {
		if joinBuilder == nil {
			return nil, nil
		}
		sj, err := joinBuilder()
		if err != nil {
			return nil, err
		}
		return []factory.Option{factory.WithStreamJoin(sj)}, nil
	})
	if err != nil {
		return err
	}
	q.merge = partition.NewMerge(q.Name+"_merge", an.MergeSource, q.tails, q.out, an.MergePlan, e.cat)
	return nil
}

// buildPartitionedWindowed builds a time-windowed continuous query as N
// shard pipelines: per shard a window runner over the shard's
// subsequence of the stream (all runners share one watermark group, so a
// lagging or empty shard still closes its windows once the stream as a
// whole has moved past them). When the grouping is partition-aligned the
// per-shard window results are final and the plain concat merge
// recombines them; otherwise the shards emit per-window partial
// aggregates tagged with the window end and a WindowedMerge aligns the
// slide grid across shards, re-aggregates each window's union, and
// replays HAVING and the projection.
func (e *Engine) buildPartitionedWindowed(q *Query, s *stream, p plan.Node, wan partition.WindowedAnalysis, w *sql.WindowClause, cfg queryConfig) error {
	shardSchema := p.Schema()
	if !wan.Aligned {
		shardSchema = wan.ShardPlan.Schema().Clone()
		shardSchema.Columns = append(shardSchema.Columns,
			catalog.Column{Name: partition.WindowEndColumn, Type: vector.Timestamp})
	}
	streamName := q.streams[0]
	group := window.NewWatermarkGroup()
	err := e.buildShards(q, []*stream{s}, q.streams, wan.ShardPlan, shardSchema, wan.Aligned, cfg, func(i int) ([]factory.Option, error) {
		runner, err := e.buildShardWindowRunner(wan, p, s.shards[i].Schema(), streamName, w, cfg)
		if err != nil {
			return nil, err
		}
		runner.ShareWatermark(group)
		if wan.Aligned {
			return []factory.Option{factory.WithWindow(runner)}, nil
		}
		return []factory.Option{factory.WithWindow(runner), factory.WithWindowEndTag()}, nil
	})
	if err != nil {
		return err
	}
	if wan.Aligned {
		q.merge = partition.NewMerge(q.Name+"_merge", "", q.tails, q.out, nil, e.cat)
		return nil
	}
	frontiers := make([]func() int64, len(q.facts))
	for i, f := range q.facts {
		frontiers[i] = f.WindowFrontier
	}
	q.merge = partition.NewWindowedMerge(q.Name+"_merge", wan.MergeSource, q.shardOuts, q.out,
		wan.MergePlan, e.cat, wan.ShardPlan.Schema().Len(), frontiers)
	return nil
}

// windowSpec resolves the window clause plus the timestamp/lateness
// options against the buffered schema.
func windowSpec(bufSchema *catalog.Schema, w *sql.WindowClause, cfg queryConfig) (window.Spec, error) {
	spec := window.Spec{
		Kind:     w.Kind,
		Size:     w.Size,
		Slide:    w.Slide,
		TSIndex:  bufSchema.Index(catalog.TimestampColumn),
		Lateness: cfg.lateness,
	}
	if cfg.tsCol != "" {
		idx := bufSchema.Index(cfg.tsCol)
		if idx < 0 {
			return window.Spec{}, fmt.Errorf("%w: timestamp column %q not in schema %s", ErrInvalidOption, cfg.tsCol, bufSchema)
		}
		switch bufSchema.Columns[idx].Type {
		case vector.Int64, vector.Timestamp:
		default:
			return window.Spec{}, fmt.Errorf("%w: timestamp column %q must be INT or TIMESTAMP, is %s",
				ErrInvalidOption, cfg.tsCol, bufSchema.Columns[idx].Type)
		}
		spec.TSIndex = idx
		spec.EventTime = !strings.EqualFold(cfg.tsCol, catalog.TimestampColumn)
	}
	return spec, nil
}

// buildWindowRunner assembles the window layer for a windowed query.
// bufSchema is the input basket's full schema (including ts); sourceName
// is the scan source the window content overrides during re-evaluation.
func (e *Engine) buildWindowRunner(p plan.Node, bufSchema *catalog.Schema, sourceName string, w *sql.WindowClause, cfg queryConfig) (*window.Runner, error) {
	spec, err := windowSpec(bufSchema, w, cfg)
	if err != nil {
		return nil, err
	}
	mode := window.ReEvaluate
	paneEval, recognized := window.RecognizeIncremental(p)
	if cfg.forceMode {
		mode = cfg.windowMode
		if mode == window.Incremental && !recognized {
			return nil, fmt.Errorf("datacell: plan shape does not support incremental windows")
		}
	} else if recognized && spec.Size%spec.Slide == 0 {
		mode = window.Incremental
	}
	if mode == window.Incremental {
		return window.NewRunner(spec, mode, nil, paneEval, bufSchema)
	}
	reEval := &window.PlanEvaluator{Plan: p, Catalog: e.cat, Source: sourceName}
	return window.NewRunner(spec, mode, reEval, nil, bufSchema)
}

// buildShardWindowRunner assembles the window layer for one shard
// pipeline of a partitioned windowed query: the full plan when the
// grouping is partition-aligned, the bare partial-aggregation plan
// (per-window mergeable partials) otherwise.
func (e *Engine) buildShardWindowRunner(wan partition.WindowedAnalysis, p plan.Node, bufSchema *catalog.Schema, sourceName string, w *sql.WindowClause, cfg queryConfig) (*window.Runner, error) {
	if wan.Aligned {
		return e.buildWindowRunner(p, bufSchema, sourceName, w, cfg)
	}
	spec, err := windowSpec(bufSchema, w, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.forceMode && cfg.windowMode == window.ReEvaluate {
		reEval := &window.PlanEvaluator{Plan: wan.ShardPlan, Catalog: e.cat, Source: sourceName}
		return window.NewRunner(spec, window.ReEvaluate, reEval, nil, bufSchema)
	}
	paneEval, ok := window.RecognizePartial(wan.ShardPlan)
	if !ok {
		// AnalyzeWindowed only accepts recognizable shapes, so this is a
		// bug guard, not a user-reachable path.
		return nil, fmt.Errorf("datacell: partial plan not recognizable for incremental windows")
	}
	return window.NewRunner(spec, window.Incremental, nil, paneEval, bufSchema)
}

// UnregisterContinuous removes a continuous query — the Go equivalent of
// DROP CONTINUOUS QUERY. Every factory (all shard pipelines) detaches
// from the scheduler, shared readers release their watermarks, the merge
// transition and the private replica and output baskets are freed, and
// the subscription closes.
func (e *Engine) UnregisterContinuous(name string) error {
	if e.dur != nil {
		e.gate.RLock()
		defer e.gate.RUnlock()
	}
	if err := e.unregisterContinuous(name); err != nil {
		return err
	}
	return e.dur.logStmt(context.Background(), "DROP CONTINUOUS QUERY "+name, true)
}

func (e *Engine) unregisterContinuous(name string) error {
	q, err := e.Query(name)
	if err == nil && !e.uninstall(q) {
		err = fmt.Errorf("%w: %q", ErrUnknownQuery, name)
	}
	return err
}

// basketExprStreams locates the basket expressions in the query and
// returns the streams they read: one for an ordinary continuous query,
// two for a stream-stream join.
func basketExprStreams(sel *sql.SelectStmt) ([]string, error) {
	var found []string
	var walk func(s *sql.SelectStmt)
	walk = func(s *sql.SelectStmt) {
		for _, f := range s.From {
			if f.Basket && f.Sub != nil && len(f.Sub.From) == 1 {
				found = append(found, f.Sub.From[0].Table)
			} else if f.Sub != nil {
				walk(f.Sub)
			}
		}
	}
	walk(sel)
	if len(found) < 1 || len(found) > 2 {
		return nil, fmt.Errorf("datacell: continuous queries need one basket expression (two for a stream-stream join), found %d", len(found))
	}
	return found, nil
}
