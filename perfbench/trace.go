package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/scheduler"
)

// tracer keeps spans in memory: one per harness call into a layer's
// public function. They are written out when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 0 = root; otherwise the parent's id
	Rows   int64  `json:"rows,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (never 0). A nil tracer
// records nothing and returns 0.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.endRows(id, 0) }

// endRows closes a span, recording how many rows the call moved.
func (t *tracer) endRows(id int, rows int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Rows = rows
}

// spanAgg sums the closed spans of one name.
type spanAgg struct {
	count, totalNS int64
}

func (t *tracer) aggregate(name string) spanAgg {
	var a spanAgg
	if t == nil {
		return a
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End != 0 {
			a.count++
			a.totalNS += s.End - s.Start
		}
	}
	return a
}

func (a spanAgg) meanNS() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.totalNS) / float64(a.count)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// snapshot is the engine's counters at one instant, read through its
// public surface: the /metrics handler, Query.Stats, the scheduler and
// engine stats, and the Go runtime.
type snapshot struct {
	at       time.Time
	prom     scrape
	sched    scheduler.Stats
	queries  map[string]queryTotals
	gcCPU    float64
	totalCPU float64
	alloc    float64
	sent     int64
}

type queryTotals struct {
	in, out, late, joinState, evictions int64
}

func (d *harness) snapshot() snapshot {
	if d.tr == nil {
		return snapshot{}
	}
	s := snapshot{at: time.Now(), queries: map[string]queryTotals{}}
	s.prom = d.scrape()
	s.sched = d.eng.Scheduler().Stats()
	for _, q := range d.eng.Queries() {
		st := q.Stats()
		s.queries[q.Name] = queryTotals{st.TuplesIn, st.TuplesOut, st.Late, st.JoinState, st.JoinEvictions}
	}
	s.gcCPU, s.totalCPU, s.alloc = runtimeCounters()
	s.sent = d.attempted.Load()
	return s
}

// scrape reads the engine's /metrics exposition in process.
func (d *harness) scrape() scrape {
	h := d.eng.MetricsHandler()
	if h == nil {
		return nil
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	sc, err := parseMetrics(rec.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scrape:", err)
	}
	return sc
}

// gauges holds what the sampler keeps: the maxima of engine gauges and
// the WAL growth.
type gauges struct {
	backlog, resident, mergeLag float64
	watermarkLag, joinState     float64
	walWritten, walTuples       float64
}

// startSampler scrapes the engine every 500 ms during a traced run and
// keeps the maxima of its gauges. The returned function stops it and
// returns them.
func (d *harness) startSampler() func() gauges {
	if d.tr == nil {
		return func() gauges { return gauges{} }
	}
	stop := make(chan struct{})
	done := make(chan gauges)
	go func() {
		var g gauges
		lastWAL, lastSegs, lastSent := -1.0, 0.0, 0.0
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			sc := d.scrape()
			g.backlog = max(g.backlog, sc.sum("dc_stream_backlog", nil))
			g.resident = max(g.resident, sc.sum("dc_basket_tuples", nil))
			g.mergeLag = max(g.mergeLag, sc.sum("dc_query_merge_lag", nil))
			g.watermarkLag = max(g.watermarkLag, sc.max("dc_query_watermark_lag_ns", nil))
			g.joinState = max(g.joinState, sc.sum("dc_query_join_state", nil))
			// Checkpoints prune whole log segments, so bytes written per
			// tuple are taken over the intervals in which no segment was
			// added or removed and the log only grew. A removed segment
			// (64 MiB) outweighs what one interval writes, so an interval
			// that both sealed and pruned one shows as a fall and is
			// skipped too.
			wal, segs, sent := sc.sum("dc_wal_bytes", nil), sc.sum("dc_wal_segments", nil), float64(d.attempted.Load())
			if lastWAL >= 0 && segs == lastSegs && wal >= lastWAL {
				g.walWritten += wal - lastWAL
				g.walTuples += sent - lastSent
			}
			lastWAL, lastSegs, lastSent = wal, segs, sent
			select {
			case <-stop:
				done <- g
				return
			case <-tick.C:
			}
		}
	}()
	return func() gauges {
		close(stop)
		return <-done
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics from the counter deltas
// between two snapshots and the spans recorded in between.
func (d *harness) layerMetrics(rep *report, a, b snapshot, g gauges, untracedTPS, tracedTPS float64) {
	m := rep.metrics
	elapsedNS := float64(b.at.Sub(a.at).Nanoseconds())
	workers := float64(len(b.sched.Workers))
	stage := func(s string) map[string]string { return map[string]string{"stage": s} }
	diff := func(name string) float64 { return b.prom.sum(name, nil) - a.prom.sum(name, nil) }

	m["datacell.ingest_us_per_batch"] = d.tr.aggregate("datacell.IngestColumns").meanNS() / 1e3
	m["datacell.register_ms_per_query"] = d.tr.aggregate("datacell.Exec.create_query").meanNS() / 1e6
	m["datacell.churn_ms"] = d.tr.aggregate("datacell.Exec.churn").meanNS() / 1e6
	m["datacell.backlog_max"] = g.backlog

	matched, skipped := diff("dc_route_matched_queries_total"), diff("dc_route_skipped_queries_total")
	m["route.matched_frac"] = ratio(matched, matched+skipped)
	m["route.evals_per_batch"] = ratio(diff("dc_route_shared_evals_total"), diff("dc_route_batches_total"))

	fire := deltaHist(a.prom, b.prom, "dc_stage_fire_ns", stage("fire"))
	m["factory.fire_busy_frac"] = ratio(fire.sum, elapsedNS*workers)
	m["factory.fire_us_mean"] = fire.mean() / 1e3
	m["factory.queue_us_mean"] = deltaHist(a.prom, b.prom, "dc_stage_queue_ns", stage("fire")).mean() / 1e3
	var in, out, late, evict, joinIn, joinOut float64
	for name, qb := range b.queries {
		qa := a.queries[name]
		in += float64(qb.in - qa.in)
		out += float64(qb.out - qa.out)
		late += float64(qb.late - qa.late)
		evict += float64(qb.evictions - qa.evictions)
		if qb.joinState > 0 || qb.evictions > 0 {
			joinIn += float64(qb.in - qa.in)
			joinOut += float64(qb.out - qa.out)
		}
	}
	m["factory.out_per_in"] = ratio(out, in)

	merge := deltaHist(a.prom, b.prom, "dc_stage_fire_ns", stage("merge"))
	m["partition.merge_busy_frac"] = ratio(merge.sum, elapsedNS*workers)
	m["partition.merge_queue_us_mean"] = deltaHist(a.prom, b.prom, "dc_stage_queue_ns", stage("merge")).mean() / 1e3
	m["partition.merge_lag_max"] = g.mergeLag
	m["partition.shard_skew"] = shardSkew(a.prom, b.prom, d.sp.streams)

	m["window.late_tuples"] = late
	m["window.watermark_lag_ms"] = g.watermarkLag / 1e6

	m["exec.join_state_rows"] = g.joinState
	m["exec.join_evictions"] = evict
	m["exec.join_out_per_in"] = ratio(joinOut, joinIn)

	commit := deltaHist(a.prom, b.prom, "dc_wal_commit_ns", nil)
	m["wal.commit_us_mean"] = commit.mean() / 1e3
	m["wal.fsync_us_mean"] = deltaHist(a.prom, b.prom, "dc_wal_fsync_ns", nil).mean() / 1e3
	m["wal.batches_per_fsync"] = ratio(commit.count, diff("dc_wal_fsync_rounds_total"))
	m["wal.bytes_per_tuple"] = ratio(g.walWritten, g.walTuples)

	m["checkpoint.ms_mean"] = deltaHist(a.prom, b.prom, "dc_checkpoint_ns", nil).mean() / 1e6
	m["checkpoint.count"] = diff("dc_checkpoint_total")
	m["checkpoint.bytes"] = checkpointBytes(filepath.Join(d.dir, fmt.Sprintf("setup-%d", d.sp.setups-1)))

	m["adapters.delivery_us_mean"] = deltaHist(a.prom, b.prom, "dc_delivery_latency_ns", nil).mean() / 1e3
	m["adapters.deliver_busy_frac"] = ratio(deltaHist(a.prom, b.prom, "dc_stage_fire_ns", stage("deliver")).sum, elapsedNS*workers)
	m["adapters.rows_per_batch"] = ratio(float64(d.recvRows.Load()), float64(d.recvBatches.Load()))

	var busy, idle float64
	for i, w := range b.sched.Workers {
		busy += float64(w.BusyNS - a.sched.Workers[i].BusyNS)
		idle += float64(w.IdleNS - a.sched.Workers[i].IdleNS)
	}
	fired := float64(b.sched.Fired - a.sched.Fired)
	misses := float64(b.sched.ClaimMisses - a.sched.ClaimMisses)
	m["scheduler.busy_frac"] = ratio(busy, busy+idle)
	m["scheduler.claim_miss_frac"] = ratio(misses, fired+misses)
	m["scheduler.coalesced_per_fire"] = ratio(float64(b.sched.CoalescedWakes-a.sched.CoalescedWakes), fired)

	m["basket.resident_max"] = g.resident
	m["runtime.alloc_bytes_per_tuple"] = ratio(b.alloc-a.alloc, float64(b.sent-a.sent))
	m["runtime.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)

	d.lagMu.Lock()
	m["gen.lag_p99_ms"] = float64(percentile(d.lags, 0.99)) / 1e6
	d.lagMu.Unlock()
	m["gen.tracing_overhead_pct"] = 100 * ratio(untracedTPS-tracedTPS, untracedTPS)
}

// replayMetrics reads the replay spans the workload recorded.
func (d *harness) replayMetrics(rep *report) {
	rep.metrics["route.add_us"] = d.tr.aggregate("route.Index.Add").meanNS() / 1e3
	rep.metrics["route.match_us_per_batch"] = d.tr.aggregate("route.Index.Match").meanNS() / 1e3
	rep.metrics["partition.split_us_per_batch"] = d.tr.aggregate("partition.Router.Split").meanNS() / 1e3
}

// shardSkew is max/mean of the tuples consumed per shard basket of the
// workload's streams (0 for unpartitioned streams).
func shardSkew(a, b scrape, streams []string) float64 {
	var per []float64
	for _, s := range b {
		if s.name != "dc_basket_dropped_total" || s.labels["shard"] == "" {
			continue
		}
		base, _, ok := strings.Cut(s.labels["basket"], "#")
		if !ok || !contains(streams, base) {
			continue
		}
		per = append(per, s.value-a.sum(s.name, s.labels))
	}
	if len(per) == 0 {
		return 0
	}
	var sum, hi float64
	for _, v := range per {
		sum += v
		hi = max(hi, v)
	}
	return ratio(hi, sum/float64(len(per)))
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// checkpointBytes sums the checkpoint files under a data directory.
func checkpointBytes(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".ckpt") {
			return nil
		}
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return float64(n)
}
