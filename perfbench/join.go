package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	datacell "repro"
	"repro/internal/storage"
	"repro/internal/vector"
)

// durable_join is the WAL and state path: a durable engine with the
// background checkpointer, streams orders and payments ingested by one
// goroutine each (so group commit has concurrent committers), a
// stream-stream equi-join within a time band, and enrichment of orders
// against a customers table that receives low-rate INSERTs. It loads WAL
// group commit, checkpoint capture against ingest, streaming join state
// and recovery; it bypasses routing and partitioning.
const (
	djKeys      = 200
	djCustomers = 1000 // orders reference customers 0..djKeys-1 only
	djBand      = 2_000_000
	// djLateness bounds disorder within one side; each side's event time
	// only grows, so the two ingest goroutines drifting apart loses no
	// match.
	djLateness   = 10_000_000
	djCheckpoint = time.Second
	djInsertMS   = 100
)

type djEvent struct{ et, gen int64 }

type durableJoin struct {
	rng *rand.Rand
	// recent events per key per side (0 orders, 1 payments) that a later
	// event can still match.
	recent [2][][]djEvent

	tiers        []int64
	wantPairs    int64
	wantPairFP   int64
	wantEnrich   int64
	wantEnrichFP int64
	gotPairs     int64
	gotPairFP    int64
	gotEnrich    int64
	gotEnrichFP  int64
	wrong        atomic.Int64
	nextCustomer int64
	insertRng    *rand.Rand
}

func newDurableJoin(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	w := &durableJoin{rng: rng, insertRng: rand.New(rand.NewSource(seed + 1))}
	for s := range w.recent {
		w.recent[s] = make([][]djEvent, djKeys)
	}
	for i := 0; i < djCustomers; i++ {
		w.tiers = append(w.tiers, int64(rng.Intn(5)))
	}
	return w
}

func (w *durableJoin) spec() wlSpec {
	return wlSpec{
		streams:     []string{"orders", "payments"},
		lightRate:   10_000,
		heavyRate:   80_000,
		p90LimitMS:  50,
		closedBatch: 500,
		setups:      21,
	}
}

func (w *durableJoin) config(dataDir string) datacell.Config {
	return datacell.Config{DataDir: dataDir, CheckpointInterval: djCheckpoint}
}

func (w *durableJoin) setup(ctx context.Context, eng *datacell.Engine, tr *tracer) error {
	var load []byte
	load = append(load, "INSERT INTO customers VALUES "...)
	for i, t := range w.tiers {
		if i > 0 {
			load = append(load, ", "...)
		}
		load = fmt.Appendf(load, "(%d, %d)", i, t)
	}
	stmts := []string{
		"CREATE BASKET orders (k INT, amount INT, et INT, gen_ns INT)",
		"CREATE BASKET payments (k INT, amount INT, et INT, gen_ns INT)",
		"CREATE TABLE customers (cid INT, tier INT)",
		string(load),
		fmt.Sprintf(`CREATE CONTINUOUS QUERY paid WITH (timestamp = et, lateness = %d) AS
			SELECT o.k AS k, o.gen_ns AS og, p.gen_ns AS pg
			FROM [SELECT * FROM orders] AS o JOIN [SELECT * FROM payments] AS p
			ON o.k = p.k WITHIN %d`, djLateness, djBand),
		`CREATE CONTINUOUS QUERY enriched AS
			SELECT o.k AS k, c.tier AS tier, o.gen_ns AS og
			FROM [SELECT * FROM orders] AS o JOIN customers AS c ON o.k = c.cid`,
	}
	for i, st := range stmts {
		var id int
		if i >= 4 {
			id = tr.begin("datacell.Exec.create_query", 0)
		}
		_, err := eng.Exec(ctx, st)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	w.nextCustomer = 10 * djCustomers
	return nil
}

func (w *durableJoin) subscriptions() []subscription {
	return []subscription{
		{query: "paid", counted: true, handle: w.handlePaid},
		{query: "enriched", counted: true, handle: w.handleEnriched},
	}
}

func (w *durableJoin) handlePaid(rel *storage.Relation, dues []int64) []int64 {
	ks, og, pg := rel.Cols[0].Ints(), rel.Cols[1].Ints(), rel.Cols[2].Ints()
	for i := range ks {
		if d := og[i] - pg[i]; d > djBand || d < -djBand {
			w.wrong.Add(1)
			continue
		}
		w.gotPairs++
		w.gotPairFP += pairFingerprint(og[i], pg[i])
		dues = append(dues, max(og[i], pg[i]))
	}
	return dues
}

func (w *durableJoin) handleEnriched(rel *storage.Relation, dues []int64) []int64 {
	ks, tiers, og := rel.Cols[0].Ints(), rel.Cols[1].Ints(), rel.Cols[2].Ints()
	for i := range ks {
		if ks[i] < 0 || ks[i] >= djKeys || tiers[i] != w.tiers[ks[i]] {
			w.wrong.Add(1)
			continue
		}
		w.gotEnrich++
		w.gotEnrichFP += fingerprint(og[i])
		dues = append(dues, og[i])
	}
	return dues
}

func pairFingerprint(og, pg int64) int64 { return fingerprint(og ^ fingerprint(pg)) }

func (w *durableJoin) round(due int64, n int) ([][]*vector.Vector, int64) {
	var out [][]*vector.Vector
	var determined int64
	// Drop remembered events no later event can match: later events are
	// due no earlier than this round.
	for s := range w.recent {
		for k, evs := range w.recent[s] {
			i := 0
			for i < len(evs) && evs[i].et < due-djBand {
				i++
			}
			w.recent[s][k] = evs[i:]
		}
	}
	for side := 0; side < 2; side++ {
		ks := make([]int64, n)
		amounts := make([]int64, n)
		ets := make([]int64, n)
		for j := 0; j < n; j++ {
			k := int64(w.rng.Intn(djKeys))
			ev := djEvent{et: due + int64(2*j+side), gen: due + int64(2*j+side)}
			ks[j], amounts[j], ets[j] = k, int64(w.rng.Intn(1000)), ev.et
			for _, o := range w.recent[1-side][k] {
				if d := o.et - ev.et; d <= djBand && d >= -djBand {
					og, pg := ev.gen, o.gen
					if side == 1 {
						og, pg = o.gen, ev.gen
					}
					w.wantPairs++
					w.wantPairFP += pairFingerprint(og, pg)
					determined++
				}
			}
			w.recent[side][k] = append(w.recent[side][k], ev)
			if side == 0 {
				w.wantEnrich++
				w.wantEnrichFP += fingerprint(ev.gen)
				determined++
			}
		}
		out = append(out, []*vector.Vector{vector.FromInts(ks), vector.FromInts(amounts), vector.FromInts(ets), vector.FromInts(ets)})
	}
	return out, determined
}

func (w *durableJoin) closing(due int64) ([][]*vector.Vector, int64) {
	return [][]*vector.Vector{nil, nil}, 0
}

// background inserts a new customer every djInsertMS ms; no order
// references it, but the insert invalidates the join's cached table
// hash.
func (w *durableJoin) background(ctx context.Context, eng *datacell.Engine, d *harness) {
	tick := time.NewTicker(djInsertMS * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		stmt := fmt.Sprintf("INSERT INTO customers VALUES (%d, %d)", w.nextCustomer, w.insertRng.Intn(5))
		w.nextCustomer++
		if _, err := eng.Exec(ctx, stmt); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "perfbench: insert:", err)
			d.opFails.Add(1)
		}
	}
}

func (w *durableJoin) verify() (int64, []string) {
	failed := w.wrong.Load() + abs(w.gotPairs-w.wantPairs) + abs(w.gotEnrich-w.wantEnrich)
	if w.gotPairs == w.wantPairs && w.gotPairFP != w.wantPairFP {
		failed++
	}
	if w.gotEnrich == w.wantEnrich && w.gotEnrichFP != w.wantEnrichFP {
		failed++
	}
	return failed, []string{fmt.Sprintf("reference: %d of %d band-join pairs, %d of %d enriched orders, %d wrong rows",
		w.gotPairs, w.wantPairs, w.gotEnrich, w.wantEnrich, w.wrong.Load())}
}

func (w *durableJoin) replay(eng *datacell.Engine, tr *tracer) error { return nil }

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
