package datacell

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/vector"
)

// regEngine returns an engine with the streams every query shape needs:
// plain s, l, r and partitioned p, pl, pr (4 shards by k).
func regEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Clock: metrics.NewManualClock(1_000_000)})
	for _, ddl := range []string{
		"CREATE BASKET s (k INT, v INT, et INT)",
		"CREATE BASKET l (k INT, v INT, et INT)",
		"CREATE BASKET r (k INT, w INT, et INT)",
		"CREATE BASKET p (k INT, v INT, et INT) WITH (partitions = 4, partition_by = k)",
		"CREATE BASKET pl (k INT, v INT, et INT) WITH (partitions = 4, partition_by = k)",
		"CREATE BASKET pr (k INT, w INT, et INT) WITH (partitions = 4, partition_by = k)",
	} {
		if _, err := e.Exec(context.Background(), ddl); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// regShape is one query shape: its registration, a feed, and the number
// of result rows the feed must deliver.
type regShape struct {
	name     string
	sql      string
	opts     []QueryOption
	windowed bool // a WINDOW RANGE query, so timestamp = ... applies
	feed     map[string][][3]int64
	want     int
	is       func(q *Query) bool // the registration took this shape's path
}

const regFilterSQL = `SELECT x.k AS k, x.v AS v FROM [SELECT * FROM s] AS x WHERE x.v > 0`

var regShapes = []regShape{
	{
		name: "separate", sql: regFilterSQL, opts: []QueryOption{WithStrategy(SeparateBaskets)},
		feed: map[string][][3]int64{"s": {{1, 5, 0}, {2, -1, 0}, {3, 7, 0}}}, want: 2,
		is: func(q *Query) bool { return len(q.replicas) == 1 },
	},
	{
		name: "shared", sql: regFilterSQL, opts: []QueryOption{WithStrategy(SharedBaskets)},
		feed: map[string][][3]int64{"s": {{1, 5, 0}, {2, -1, 0}, {3, 7, 0}}}, want: 2,
		is: func(q *Query) bool { return len(q.replicas) == 0 && q.routed == nil && !q.Partitioned() },
	},
	{
		name: "routed", sql: `SELECT x.k AS k, x.v AS v FROM [SELECT * FROM s] AS x WHERE x.k = 1`,
		opts: []QueryOption{WithStrategy(RoutedScan)},
		feed: map[string][][3]int64{"s": {{1, 5, 0}, {2, 6, 0}, {1, 7, 0}}}, want: 2,
		is: func(q *Query) bool { return q.routed != nil },
	},
	{
		name: "sharded", sql: `SELECT x.k AS k, x.v AS v FROM [SELECT * FROM p] AS x WHERE x.v > 0`,
		feed: map[string][][3]int64{"p": {{1, 5, 0}, {2, -1, 0}, {3, 7, 0}, {4, 8, 0}}}, want: 3,
		is: (*Query).Partitioned,
	},
	{
		name: "stream-stream", sql: symJoinSQL,
		feed: map[string][][3]int64{"l": {{1, 10, 0}, {2, 20, 0}}, "r": {{1, 100, 0}, {3, 300, 0}}}, want: 1,
		is: func(q *Query) bool { return len(q.streams) == 2 && !q.Partitioned() },
	},
	{
		name: "flat-windowed", sql: `SELECT COUNT(*) AS n FROM [SELECT * FROM s] AS x WINDOW RANGE 100 SLIDE 100`,
		opts: []QueryOption{WithEventTimeColumn("et")}, windowed: true,
		feed: map[string][][3]int64{"s": {{1, 1, 10}, {2, 2, 20}, {3, 3, 250}}}, want: 2,
		is: func(q *Query) bool { return len(q.replicas) == 1 },
	},
	{
		name: "sharded-windowed", sql: `SELECT x.k AS k, COUNT(*) AS n FROM [SELECT * FROM p] AS x GROUP BY x.k WINDOW RANGE 100 SLIDE 100`,
		opts: []QueryOption{WithEventTimeColumn("et")}, windowed: true,
		feed: map[string][][3]int64{"p": {{1, 0, 10}, {1, 0, 20}, {2, 0, 30}, {5, 0, 250}}}, want: 2,
		is: (*Query).Partitioned,
	},
	{
		name: "co-partitioned-join", sql: `SELECT l.k AS k, l.v AS v, r.w AS w
			FROM [SELECT * FROM pl] AS l JOIN [SELECT * FROM pr] AS r ON l.k = r.k`,
		feed: map[string][][3]int64{"pl": {{1, 10, 0}, {2, 20, 0}}, "pr": {{1, 100, 0}, {2, 200, 0}, {3, 300, 0}}}, want: 2,
		is: func(q *Query) bool { return len(q.streams) == 2 && q.Partitioned() },
	},
}

// feedAndCount ingests the shape's feed, runs the net dry, and returns
// the number of rows the query's subscription delivered.
func (sh regShape) feedAndCount(t *testing.T, e *Engine, q *Query) int {
	t.Helper()
	streams := make([]string, 0, len(sh.feed))
	for s := range sh.feed {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	for _, s := range streams {
		ingest3(t, e, s, sh.feed[s])
		e.Drain()
	}
	return countRows(collect(q))
}

// regState is everything a registration publishes outside its Query.
type regState struct {
	Replicas     map[string]int
	ShardReaders map[string]int
	Readers      map[string]int // by basket: primaries and shard baskets
	Transitions  int
	ShardEntries []string // <name>_out#i catalog entries
}

func snapshotReg(e *Engine, name string) regState {
	st := regState{Replicas: map[string]int{}, ShardReaders: map[string]int{}, Readers: map[string]int{}}
	e.mu.Lock()
	for key, s := range e.streams {
		st.Replicas[key] = len(s.replicas)
		st.ShardReaders[key] = s.shardReaders
		st.Readers[s.primary.Name()] = s.primary.Readers()
		for _, b := range s.shards {
			st.Readers[b.Name()] = b.Readers()
		}
	}
	e.mu.Unlock()
	st.Transitions = len(e.Scheduler().Transitions())
	for _, n := range e.Catalog().Names() {
		if strings.HasPrefix(n, name+"_out#") {
			st.ShardEntries = append(st.ShardEntries, n)
		}
	}
	return st
}

// Concurrent registrations of one name: exactly one wins, every loser
// gets ErrDuplicateQuery, and the losers' cleanup leaves the winner's
// reader marks, replicas and catalog entries intact, so it delivers every
// matching row of a later ingest.
func TestConcurrentRegisterOneWinner(t *testing.T) {
	const racers, trials = 8, 20
	for _, sh := range regShapes[:5] {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				e := regEngine(t)
				qs := make([]*Query, racers)
				errs := make([]error, racers)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for g := range racers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						qs[g], errs[g] = e.RegisterContinuous("q", sh.sql, sh.opts...)
					}()
				}
				close(start)
				wg.Wait()
				var winner *Query
				for g, err := range errs {
					switch {
					case err == nil && winner != nil:
						t.Fatalf("trial %d: two registrations of one name succeeded", trial)
					case err == nil:
						winner = qs[g]
					case !errors.Is(err, ErrDuplicateQuery):
						t.Fatalf("trial %d: loser got %v, want ErrDuplicateQuery", trial, err)
					}
				}
				if winner == nil {
					t.Fatalf("trial %d: no registration succeeded", trial)
				}
				if !sh.is(winner) {
					t.Fatalf("trial %d: registration took the wrong path", trial)
				}
				if got := sh.feedAndCount(t, e, winner); got != sh.want {
					t.Fatalf("trial %d: winner delivered %d rows, want %d", trial, got, sh.want)
				}
			}
		})
	}
}

// A registration that fails in a user-reachable way — its output name is
// taken, or a window names a missing timestamp column — leaves nothing
// behind on any shape's path: no replica, shard-reader count, reader
// mark, transition or shard catalog entry. The name stays free, so the
// same registration succeeds once the obstacle is gone.
func TestFailedRegistrationLeavesNothing(t *testing.T) {
	for _, sh := range regShapes {
		t.Run(sh.name+"/out-taken", func(t *testing.T) {
			e := regEngine(t)
			if _, err := e.Exec(context.Background(), "CREATE TABLE q_out (a INT)"); err != nil {
				t.Fatal(err)
			}
			before := snapshotReg(e, "q")
			if _, err := e.RegisterContinuous("q", sh.sql, sh.opts...); !errors.Is(err, ErrDuplicateName) {
				t.Fatalf("err = %v, want ErrDuplicateName", err)
			}
			if after := snapshotReg(e, "q"); !reflect.DeepEqual(before, after) {
				t.Fatalf("failed registration leaked state:\nbefore %+v\nafter  %+v", before, after)
			}
			if _, err := e.Exec(context.Background(), "DROP TABLE q_out"); err != nil {
				t.Fatal(err)
			}
			registerAndDeliver(t, e, sh)
		})
		if !sh.windowed {
			continue
		}
		t.Run(sh.name+"/bad-timestamp", func(t *testing.T) {
			e := regEngine(t)
			before := snapshotReg(e, "q")
			bad := append(append([]QueryOption(nil), sh.opts...), WithEventTimeColumn("nosuch"))
			if _, err := e.RegisterContinuous("q", sh.sql, bad...); !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("err = %v, want ErrInvalidOption", err)
			}
			if after := snapshotReg(e, "q"); !reflect.DeepEqual(before, after) {
				t.Fatalf("failed registration leaked state:\nbefore %+v\nafter  %+v", before, after)
			}
			registerAndDeliver(t, e, sh)
		})
	}
}

func registerAndDeliver(t *testing.T, e *Engine, sh regShape) {
	t.Helper()
	q, err := e.RegisterContinuous("q", sh.sql, sh.opts...)
	if err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if !sh.is(q) {
		t.Fatal("registration took the wrong path")
	}
	if got := sh.feedAndCount(t, e, q); got != sh.want {
		t.Fatalf("delivered %d rows, want %d", got, sh.want)
	}
}

// A cascade that fails to register leaves no stage catalog entries or
// subscriptions behind, whether an attribute is unknown or a later
// stage's output name is taken, so the name registers afterwards.
func TestCascadeFailedRegisterLeavesNoEntries(t *testing.T) {
	e, _ := newEngine(t)
	stage := func(attr string) CascadePredicate {
		return CascadePredicate{Attr: attr, Lo: vector.NewInt(0), Hi: vector.NewInt(10)}
	}
	if _, err := e.RegisterCascade("c", "R", []CascadePredicate{stage("a"), stage("zzz")}); err == nil {
		t.Fatal("cascade over an unknown attribute registered")
	}
	if _, err := e.Exec(context.Background(), "CREATE TABLE d_s1_out (a INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterCascade("d", "R", []CascadePredicate{stage("a"), {Attr: "b", Lo: vector.NewInt(0), Hi: vector.NewInt(10)}}); err == nil {
		t.Fatal("cascade over a taken stage name registered")
	}
	for _, n := range e.Catalog().Names() {
		if strings.HasPrefix(n, "c_s") || strings.HasPrefix(n, "d_s0") {
			t.Errorf("failed cascade left catalog entry %q", n)
		}
	}
	e.mu.Lock()
	subs := len(e.subs)
	e.mu.Unlock()
	if subs != 0 {
		t.Errorf("failed cascades left %d subscriptions", subs)
	}
	c, err := e.RegisterCascade("c", "R", []CascadePredicate{stage("a")})
	if err != nil {
		t.Fatalf("re-register: %v", err)
	}
	ingestPairs(t, e, "R", [][2]int64{{5, 1}, {50, 2}})
	e.Drain()
	select {
	case rel := <-c.Subscription(0).C():
		if rel.NumRows() != 1 {
			t.Errorf("stage 0 delivered %d rows, want 1", rel.NumRows())
		}
	default:
		t.Error("stage 0 delivered nothing")
	}
}

// In Start mode a depth-1 blocking subscription whose consumer reads
// slowly still receives every row with no further ingest: the engine's
// timer wakes the emitter once the consumer frees channel room, since no
// basket append will.
func TestStartModeBlockedEmitterDrainsOnTick(t *testing.T) {
	ctx := context.Background()
	e := New(Config{})
	if _, err := e.Exec(ctx, "CREATE BASKET s (k INT)"); err != nil {
		t.Fatal(err)
	}
	q, err := e.RegisterContinuous("q", "SELECT * FROM [SELECT * FROM s] AS x",
		WithSubscriptionDepth(1), WithBackpressure(BackpressureBlock))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer e.Stop(ctx)
	ingest := func(i int) {
		if err := e.Ingest(ctx, "s", [][]vector.Value{{vector.NewInt(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// Fill the channel, then queue the remaining rows behind it in q_out.
	const batches = 20
	ingest(0)
	waitFor("the first delivery", func() bool { return len(q.Subscription().C()) == 1 })
	for i := 1; i < batches; i++ {
		ingest(i)
	}
	waitFor("the factory to consume every row", func() bool { return q.Stats().TuplesIn == batches })
	got := 0
	deadline := time.After(10 * time.Second)
	for got < batches {
		time.Sleep(10 * time.Millisecond) // a slow consumer
		select {
		case rel := <-q.Subscription().C():
			got += rel.NumRows()
		case <-deadline:
			t.Fatalf("received %d of %d rows", got, batches)
		}
	}
	if got != batches {
		t.Fatalf("received %d rows, want %d", got, batches)
	}
	if n := q.Stats().TuplesIn; n != batches {
		t.Errorf("factory read %d tuples, want %d", n, batches)
	}
}
