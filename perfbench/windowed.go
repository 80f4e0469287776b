package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	datacell "repro"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/vector"
)

// windowed_agg is event-time aggregation on a stream sharded nproc ways
// by key: a tumbling GROUP BY k window that runs as shard pipelines plus
// a merge, and a sliding scalar aggregate evaluated incrementally. About
// a tenth of the events are displaced backward within the lateness
// bound. It loads the partition router, inbox and merge, the window
// runners and aggregation; it bypasses routing and the WAL.
const (
	waKeys     = 64
	waWindow   = 1_000_000 // tumbling window and sliding slide, ns of event time
	waSlideLen = 4 * waWindow
	waLateness = 500_000
	// waDisplaced is the share of events whose event time is moved back
	// by up to 0.9 × lateness.
	waDisplaced = 0.1
	// waSkip is how many windows after the first event the reference
	// leaves unchecked: shard runners each start their window grid at
	// their own first tuple, so the first windows are partial by design.
	waSkip = 5
)

type waAgg struct {
	c, s, lo int64
}

type windowedAgg struct {
	seed   int64
	rng    *rand.Rand
	zipf   *rand.Zipf
	shards int

	maxET     int64
	checkFrom int64 // first window start the reference checks; 0 until the first event
	// Open windows, keyed by start: per-key tumbling aggregates and the
	// scalar sliding aggregate.
	tumble map[int64]map[int64]*waAgg
	slide  map[int64]*waAgg

	mu sync.Mutex
	// Completed windows waiting for their result rows, with the due time
	// of the round whose watermark advance closed them.
	wantTumble map[[2]int64]waDone // (start, k)
	wantSlide  map[waAgg][]waDone  // (count, sum, min et) -> windows
	wrong      atomic.Int64
	matched    int64
}

type waDone struct {
	agg waAgg
	due int64
}

func newWindowedAgg(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	return &windowedAgg{
		seed:       seed,
		rng:        rng,
		zipf:       rand.NewZipf(rng, 1.2, 1, waKeys-1),
		shards:     runtime.NumCPU(),
		tumble:     map[int64]map[int64]*waAgg{},
		slide:      map[int64]*waAgg{},
		wantTumble: map[[2]int64]waDone{},
		wantSlide:  map[waAgg][]waDone{},
	}
}

func (w *windowedAgg) spec() wlSpec {
	return wlSpec{
		streams:     []string{"events"},
		lightRate:   20_000,
		heavyRate:   200_000,
		p90LimitMS:  50,
		closedBatch: 1000,
		setups:      21,
	}
}

func (w *windowedAgg) config(dataDir string) datacell.Config { return datacell.Config{} }

func (w *windowedAgg) setup(ctx context.Context, eng *datacell.Engine, tr *tracer) error {
	stmts := []string{
		fmt.Sprintf("CREATE BASKET events (k INT, v INT, et INT, gen_ns INT) WITH (partitions = %d, partition_by = k)", w.shards),
		fmt.Sprintf(`CREATE CONTINUOUS QUERY tumble WITH (timestamp = et, lateness = %d) AS
			SELECT x.k AS k, COUNT(*) AS c, SUM(x.v) AS s, MIN(x.et) AS lo
			FROM [SELECT * FROM events] AS x GROUP BY x.k WINDOW RANGE %d`, waLateness, waWindow),
		fmt.Sprintf(`CREATE CONTINUOUS QUERY sliding WITH (timestamp = et, lateness = %d, window_mode = incremental) AS
			SELECT COUNT(*) AS c, SUM(x.v) AS s, MIN(x.et) AS lo
			FROM [SELECT * FROM events] AS x WINDOW RANGE %d SLIDE %d`, waLateness, waSlideLen, waWindow),
	}
	for i, st := range stmts {
		var id int
		if i > 0 {
			id = tr.begin("datacell.Exec.create_query", 0)
		}
		_, err := eng.Exec(ctx, st)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *windowedAgg) subscriptions() []subscription {
	return []subscription{
		{query: "tumble", counted: true, handle: w.handleTumble},
		{query: "sliding", counted: true, handle: w.handleSlide},
	}
}

func (w *windowedAgg) handleTumble(rel *storage.Relation, dues []int64) []int64 {
	ks, cs, ss, los := rel.Cols[0].Ints(), rel.Cols[1].Ints(), rel.Cols[2].Ints(), rel.Cols[3].Ints()
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range ks {
		start := floorTo(los[i], waWindow)
		key := [2]int64{start, ks[i]}
		want, ok := w.wantTumble[key]
		switch {
		case ok && want.agg == (waAgg{cs[i], ss[i], los[i]}):
			delete(w.wantTumble, key)
			w.matched++
			dues = append(dues, want.due)
		case w.checkFrom != 0 && start >= w.checkFrom:
			w.wrong.Add(1)
		}
	}
	return dues
}

func (w *windowedAgg) handleSlide(rel *storage.Relation, dues []int64) []int64 {
	cs, ss, los := rel.Cols[0].Ints(), rel.Cols[1].Ints(), rel.Cols[2].Ints()
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range cs {
		if cs[i] == 0 {
			continue // an empty window: nothing to check
		}
		key := waAgg{cs[i], ss[i], los[i]}
		if list := w.wantSlide[key]; len(list) > 0 {
			dues = append(dues, list[0].due)
			w.matched++
			if len(list) == 1 {
				delete(w.wantSlide, key)
			} else {
				w.wantSlide[key] = list[1:]
			}
			continue
		}
		// A row whose window may start before checkFrom is unchecked.
		if w.checkFrom != 0 && los[i] >= w.checkFrom+waSlideLen {
			w.wrong.Add(1)
		}
	}
	return dues
}

func floorTo(x, step int64) int64 {
	m := x % step
	if m < 0 {
		m += step
	}
	return x - m
}

func (w *windowedAgg) round(due int64, n int) ([][]*vector.Vector, int64) {
	ks := make([]int64, n)
	vs := make([]int64, n)
	ets := make([]int64, n)
	gens := make([]int64, n)
	for j := 0; j < n; j++ {
		k := int64(w.zipf.Uint64())
		v := int64(w.rng.Intn(100))
		et := due + int64(j)
		if w.rng.Float64() < waDisplaced {
			et -= w.rng.Int63n(waLateness * 9 / 10)
		}
		ks[j], vs[j], ets[j], gens[j] = k, v, et, due+int64(j)
		w.add(k, v, et)
	}
	cols := []*vector.Vector{vector.FromInts(ks), vector.FromInts(vs), vector.FromInts(ets), vector.FromInts(gens)}
	return [][]*vector.Vector{cols}, w.complete(due)
}

// add folds one event into the reference's open windows.
func (w *windowedAgg) add(k, v, et int64) {
	if w.checkFrom == 0 {
		w.mu.Lock()
		w.checkFrom = floorTo(et, waWindow) + waSkip*waSlideLen
		w.mu.Unlock()
	}
	fold := func(a *waAgg) {
		if a.c == 0 || et < a.lo {
			a.lo = et
		}
		a.c++
		a.s += v
	}
	start := floorTo(et, waWindow)
	byKey := w.tumble[start]
	if byKey == nil {
		byKey = map[int64]*waAgg{}
		w.tumble[start] = byKey
	}
	a := byKey[k]
	if a == nil {
		a = &waAgg{}
		byKey[k] = a
	}
	fold(a)
	for s := start; s > start-waSlideLen; s -= waWindow {
		a := w.slide[s]
		if a == nil {
			a = &waAgg{}
			w.slide[s] = a
		}
		fold(a)
	}
	w.maxET = max(w.maxET, et)
}

// complete moves every window whose end the watermark (max event time −
// lateness) has passed into the expected set and returns its row count.
func (w *windowedAgg) complete(due int64) int64 {
	wm := w.maxET - waLateness
	var n int64
	w.mu.Lock()
	defer w.mu.Unlock()
	for start, byKey := range w.tumble {
		if start+waWindow > wm {
			continue
		}
		delete(w.tumble, start)
		if start < w.checkFrom {
			continue
		}
		for k, a := range byKey {
			w.wantTumble[[2]int64{start, k}] = waDone{*a, due}
			n++
		}
	}
	for start, a := range w.slide {
		if start+waSlideLen > wm {
			continue
		}
		delete(w.slide, start)
		if start < w.checkFrom {
			continue
		}
		w.wantSlide[*a] = append(w.wantSlide[*a], waDone{*a, due})
		n++
	}
	return n
}

// closing sends one event per key far enough ahead that every window
// holding an earlier event closes.
func (w *windowedAgg) closing(due int64) ([][]*vector.Vector, int64) {
	et := max(due, w.maxET+waSlideLen+waLateness+waWindow)
	var ks, vs, ets, gens []int64
	for k := int64(0); k < waKeys; k++ {
		ks, vs, ets, gens = append(ks, k), append(vs, 0), append(ets, et), append(gens, due)
	}
	w.maxET = et
	n := w.complete(due)
	// The closing events themselves stay out of the reference: their own
	// windows never close.
	cols := []*vector.Vector{vector.FromInts(ks), vector.FromInts(vs), vector.FromInts(ets), vector.FromInts(gens)}
	return [][]*vector.Vector{cols}, n
}

func (w *windowedAgg) background(ctx context.Context, eng *datacell.Engine, d *harness) {}

func (w *windowedAgg) verify() (int64, []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	missing := int64(len(w.wantTumble))
	for _, l := range w.wantSlide {
		missing += int64(len(l))
	}
	return missing + w.wrong.Load(), []string{fmt.Sprintf("reference: %d window rows matched, %d missing, %d wrong", w.matched, missing, w.wrong.Load())}
}

// replay times partition.Router.Split on the workload's own batches.
func (w *windowedAgg) replay(eng *datacell.Engine, tr *tracer) error {
	schema := datacell.NewSchema(datacell.Col("k", datacell.Int64), datacell.Col("v", datacell.Int64),
		datacell.Col("et", datacell.Int64), datacell.Col("gen_ns", datacell.Int64))
	r, err := partition.NewRouter(schema, datacell.PartitionSpec{Shards: w.shards, By: "k"})
	if err != nil {
		return err
	}
	root := tr.begin("replay.partition", 0)
	defer tr.end(root)
	var splitErr error
	replayRounds(newWindowedAgg(w.seed), func(cols []*vector.Vector) {
		id := tr.begin("partition.Router.Split", root)
		_, err := r.Split(cols)
		tr.end(id)
		if err != nil {
			splitErr = err
		}
	})
	return splitErr
}
