package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	datacell "repro"
	"repro/internal/storage"
	"repro/internal/vector"
)

// workload is one traffic mix: the schema and continuous queries it
// installs, a deterministic input generator that keeps the reference
// results as it generates, and the checks applied to delivered rows.
type workload interface {
	spec() wlSpec
	config(dataDir string) datacell.Config
	// setup runs the DDL, loads tables and registers the queries: all
	// work before the first ingest.
	setup(ctx context.Context, eng *datacell.Engine, tr *tracer) error
	// subscriptions names the queries whose results the harness receives.
	subscriptions() []subscription
	// round generates the next input round, one batch per stream (nil
	// when a stream sends nothing), every tuple due at due. perStream is
	// the number of tuples per stream. It returns the number of result
	// rows the round completes, per the reference.
	round(due int64, perStream int) ([][]*vector.Vector, int64)
	// closing generates a last round that completes every result the
	// earlier rounds left open (windows waiting for their watermark).
	closing(due int64) ([][]*vector.Vector, int64)
	// background runs side traffic (query churn, table inserts) until ctx
	// ends; it may be a no-op.
	background(ctx context.Context, eng *datacell.Engine, d *harness)
	// verify compares the received results with the reference once
	// every completed result was delivered, returning the failed rows.
	verify() (failed int64, notes []string)
	// replay times the route and partition layers directly on the
	// workload's own predicates and batches (traced runs only).
	replay(eng *datacell.Engine, tr *tracer) error
}

// wlSpec holds a workload's fixed constants.
type wlSpec struct {
	streams []string
	// lightRate and heavyRate are the open-loop input rates, tuples/s
	// summed over all streams, fixed from measurements at the commit
	// that introduced the benchmark.
	lightRate, heavyRate float64
	// p90LimitMS is the latency limit the heavy rate is judged against.
	p90LimitMS float64
	// closedBatch is the per-stream batch of the closed loop.
	closedBatch int
	// setups is how many times set-up is repeated for setup_s.
	setups int
}

// subscription receives one query's results. handle checks a delivered
// batch and appends, for every row the reference expects, the due time
// of the input that determined it. Queries outside the reference
// (churned ones) are not counted toward the closed loop.
type subscription struct {
	query   string
	counted bool
	handle  func(rel *storage.Relation, dues []int64) []int64
}

const (
	// roundInterval is the open-loop schedule step: every input due in
	// one step is sent as one batch, stamped with the step's due time.
	roundInterval = time.Millisecond
	// inflightRounds bounds the closed loop: round r is generated only
	// after the results of round r-inflightRounds were all delivered.
	inflightRounds = 4
	// segmentLen is the unit the measured time is cut into; a segment
	// metric is the best segment's. Every segment holds the engine's
	// periodic work: one of durable_join's 1 s checkpoints, window
	// flushes, query churn, and GC cycles at the heavy rates. Other
	// guests' bursts on the host last seconds, so shorter segments give
	// more chances of an undisturbed one.
	segmentLen = time.Second
	// warmup runs at the light rate before anything is measured.
	warmup = 500 * time.Millisecond
	// settleTimeout bounds the wait for outstanding results.
	settleTimeout = 30 * time.Second
	// maxCoalesce caps how many due rounds one ingest call carries.
	maxCoalesce = 64
	// recvSpanEvery samples receive spans: a traced filter_fanout run
	// receives millions of batches.
	recvSpanEvery = 100
	// recoveryOpens is how many crash images recovery_s is taken over.
	recoveryOpens = 7
)

type report struct {
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

type harness struct {
	ctx     context.Context
	w       workload
	sp      wlSpec
	measure time.Duration
	dir     string
	tr      *tracer

	eng     *datacell.Engine
	ingest  []chan ingestJob
	ingWG   sync.WaitGroup
	recvWG  sync.WaitGroup
	subs    []*datacell.Subscription
	subsMu  sync.Mutex
	tracing atomic.Bool // spans and samplers on (traced run, after its untraced reference phase)

	delivered  atomic.Int64 // counted result rows received
	determined int64        // result rows completed by the rounds sent so far
	attempted  atomic.Int64 // tuples sent
	opFails    atomic.Int64 // tuples in failed ingests, plus failed side statements

	recvBatches atomic.Int64 // result batches received while tracing
	recvRows    atomic.Int64

	recording atomic.Bool // keep latency samples
	latMu     sync.Mutex
	latBufs   []*latBuffer // one per receiver, so receivers never contend
	lagMu     sync.Mutex
	lags      []int64 // open-loop generator lag, ns
}

type latSample struct{ due, lat int64 }

type latBuffer struct {
	mu      sync.Mutex
	samples []latSample
}

type ingestJob struct {
	cols []*vector.Vector
	due  int64
	open bool // open loop: wait for the due time and record the lag
	done *sync.WaitGroup
}

func newHarness(ctx context.Context, w workload, measure time.Duration, dir string, traced bool) *harness {
	d := &harness{ctx: ctx, w: w, sp: w.spec(), measure: measure, dir: dir}
	if traced {
		d.tr = newTracer()
	}
	return d
}

func (d *harness) run() (*report, error) {
	rep := &report{metrics: map[string]float64{}}
	var setups []float64
	for i := 0; i < d.sp.setups; i++ {
		// Each timed operation starts without garbage left by the last.
		runtime.GC()
		start := time.Now()
		eng, err := d.setup(filepath.Join(d.dir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < d.sp.setups-1 {
			if err := d.teardown(eng); err != nil {
				return nil, err
			}
		}
	}
	rep.metrics["setup_s"] = median(setups)
	defer d.teardown(d.eng)

	for _, s := range d.sp.streams {
		ch := make(chan ingestJob, 1024) // a second of open-loop rounds: the generator may run ahead of the schedule by that much
		d.ingest = append(d.ingest, ch)
		d.ingWG.Add(1)
		go d.ingester(s, ch)
	}
	defer func() {
		for _, ch := range d.ingest {
			close(ch)
		}
		d.ingWG.Wait()
	}()

	bgCtx, stopBG := context.WithCancel(d.ctx)
	var bgWG sync.WaitGroup
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		d.w.background(bgCtx, d.eng, d)
	}()
	defer func() {
		stopBG()
		bgWG.Wait()
	}()

	// Warm up: caches fill and lazy set-up finishes before timing.
	d.openLoop(d.sp.lightRate, warmup)
	if err := d.settle(); err != nil {
		return nil, err
	}

	closedSegs, openSegs := d.segments()
	steal0, cpu0 := cpuSteal()
	io0, wall0 := ioStall(), time.Now()
	var untracedTPS float64
	if d.tr != nil {
		tps, _ := d.closedLoop(closedSegs)
		untracedTPS = quantile(tps, 1)
		if err := d.settle(); err != nil {
			return nil, err
		}
		d.tracing.Store(true)
	}
	snap0 := d.snapshot()
	stopSampler := d.startSampler()
	tps, heap := d.closedLoop(closedSegs)
	if err := d.settle(); err != nil {
		return nil, err
	}
	// Other guests on the host only ever take capacity away, so each
	// segment metric is the best segment's: the highest throughput, the
	// lowest latency.
	rep.metrics["max_tps"] = quantile(tps, 1)
	rep.notes = append(rep.notes, fmt.Sprintf("segments closed tuples/s %.4g", tps))
	rep.notes = append(rep.notes, fmt.Sprintf("segments closed heap_mb %.4g", heap))
	// The median segment's peak: the single highest peak depends on
	// where one collection happened to start and moved by a fifth
	// between runs of durable_join.
	rep.metrics["peak_heap_mb"] = median(heap) / (1 << 20)

	// Light and heavy segments alternate, so drifts in the host or the
	// engine's state weigh on both rates alike.
	type segment struct {
		rate     string
		from, to int64
	}
	var segs []segment
	d.recording.Store(true)
	runtime.GC()
	for i := 0; i < openSegs; i++ {
		name, rate := "light", d.sp.lightRate
		if i%2 == 1 {
			name, rate = "heavy", d.sp.heavyRate
		}
		from, to := d.openLoop(rate, segmentLen)
		segs = append(segs, segment{name, from, to})
	}
	if err := d.settle(); err != nil {
		return nil, err
	}
	d.recording.Store(false)
	d.lagMu.Lock()
	rep.notes = append(rep.notes, fmt.Sprintf("generator lag: p50 %.3f ms, p99 %.3f ms; host steal %.1f%% of CPU time, I/O stall %.1f%% of wall time while measuring",
		float64(percentile(d.lags, 0.5))/1e6, float64(percentile(d.lags, 0.99))/1e6, 100*stealSince(steal0, cpu0),
		100*ratio(ioStall()-io0, float64(time.Since(wall0).Microseconds()))))
	d.lagMu.Unlock()
	g := stopSampler()
	snap1 := d.snapshot()
	stopBG()
	bgWG.Wait()

	cols, n := d.w.closing(time.Now().UnixNano())
	d.sendRound(cols, n, time.Now().UnixNano(), false)
	if err := d.settle(); err != nil {
		return nil, err
	}

	var lats []latSample
	d.latMu.Lock()
	for _, b := range d.latBufs {
		b.mu.Lock()
		lats = append(lats, b.samples...)
		b.mu.Unlock()
	}
	d.latBufs = nil
	d.latMu.Unlock()
	for _, rate := range []string{"light", "heavy"} {
		var p50, p90, p99 []float64
		samples := 0
		for _, sg := range segs {
			if sg.rate != rate {
				continue
			}
			var lat []int64
			for _, s := range lats {
				if s.due >= sg.from && s.due < sg.to {
					lat = append(lat, s.lat)
				}
			}
			if len(lat) < 1000 {
				return nil, fmt.Errorf("%s segment: %d latency samples, need at least 1000 for a p99 with 10 beyond it", rate, len(lat))
			}
			samples += len(lat)
			p50 = append(p50, float64(percentile(lat, 0.50))/1e6)
			p90 = append(p90, float64(percentile(lat, 0.90))/1e6)
			p99 = append(p99, float64(percentile(lat, 0.99))/1e6)
		}
		rep.metrics["p50_ms."+rate] = quantile(p50, 0)
		rep.metrics["p90_ms."+rate] = quantile(p90, 0)
		rep.notes = append(rep.notes, fmt.Sprintf("segments %s p50_ms %.4g", rate, p50), fmt.Sprintf("segments %s p90_ms %.4g", rate, p90))
		r := map[string]float64{"light": d.sp.lightRate, "heavy": d.sp.heavyRate}[rate]
		rep.notes = append(rep.notes, fmt.Sprintf("latency %s (%.0f tuples/s): %d samples in %d segments of %v; best-segment p50 %.3f ms, p90 %.3f ms (limit %.0f ms); median-segment p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (reported, not gated)",
			rate, r, samples, len(p90), segmentLen, quantile(p50, 0), quantile(p90, 0), d.sp.p90LimitMS, median(p50), median(p90), median(p99)))
	}

	failed, notes := d.w.verify()
	rep.notes = append(rep.notes, notes...)
	dropped := int64(0)
	d.subsMu.Lock()
	for _, s := range d.subs {
		dropped += s.Dropped()
	}
	d.subsMu.Unlock()
	rep.attempted = d.attempted.Load()
	rep.failed = failed + dropped + d.opFails.Load()
	rep.notes = append(rep.notes, fmt.Sprintf("fail_frac %g (%d failed of %d attempted: %d result rows, %d dropped batches, %d ingest tuples)",
		float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted, failed, dropped, d.opFails.Load()))

	if d.tr != nil {
		d.layerMetrics(rep, snap0, snap1, g, untracedTPS, rep.metrics["max_tps"])
		if err := d.w.replay(d.eng, d.tr); err != nil {
			return nil, err
		}
		d.replayMetrics(rep)
	}
	if err := d.teardown(d.eng); err != nil {
		return nil, err
	}
	d.eng = nil

	rec, err := d.recovery()
	if err != nil {
		return nil, err
	}
	rep.metrics["recovery_s"] = rec
	return rep, nil
}

// setup opens an engine, runs the workload's set-up, starts the
// receivers and the scheduler: everything up to the first ingest.
func (d *harness) setup(dataDir string) (*datacell.Engine, error) {
	eng, err := datacell.Open(d.ctx, d.w.config(dataDir))
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	d.eng = eng
	if err := d.w.setup(d.ctx, eng, d.tr); err != nil {
		_ = eng.Stop(context.Background())
		return nil, fmt.Errorf("setup: %w", err)
	}
	for _, s := range d.w.subscriptions() {
		if err := d.subscribe(s); err != nil {
			_ = eng.Stop(context.Background())
			return nil, err
		}
	}
	if err := eng.Start(d.ctx); err != nil {
		return nil, err
	}
	return eng, nil
}

// teardown stops an engine and waits for its receivers to exit.
func (d *harness) teardown(eng *datacell.Engine) error {
	if eng == nil {
		return nil
	}
	err := eng.Stop(context.Background())
	d.recvWG.Wait()
	d.subsMu.Lock()
	d.subs = nil
	d.subsMu.Unlock()
	return err
}

// subscribe starts a receiver for one query of the current engine.
func (d *harness) subscribe(s subscription) error {
	q, err := d.eng.Query(s.query)
	if err != nil {
		return err
	}
	sub := q.Subscription()
	if sub == nil {
		return fmt.Errorf("query %s has no subscription", s.query)
	}
	d.subsMu.Lock()
	d.subs = append(d.subs, sub)
	d.subsMu.Unlock()
	d.recvWG.Add(1)
	go func() {
		defer d.recvWG.Done()
		var dues []int64
		var received int
		buf := &latBuffer{}
		d.latMu.Lock()
		d.latBufs = append(d.latBufs, buf)
		d.latMu.Unlock()
		for {
			rel, err := sub.Recv(d.ctx)
			if err != nil {
				return // subscription closed: query dropped or engine stopped
			}
			now := time.Now().UnixNano()
			var span int
			if d.tracing.Load() {
				d.recvBatches.Add(1)
				d.recvRows.Add(int64(rel.NumRows()))
				if received++; received%recvSpanEvery == 0 {
					span = d.tr.begin("adapters.Subscription.Recv", 0)
				}
			}
			dues = s.handle(rel, dues[:0])
			if s.counted {
				d.delivered.Add(int64(len(dues)))
			}
			if d.recording.Load() && len(dues) > 0 {
				buf.mu.Lock()
				for _, due := range dues {
					buf.samples = append(buf.samples, latSample{due, now - due})
				}
				buf.mu.Unlock()
			}
			if span != 0 {
				d.tr.endRows(span, int64(rel.NumRows()))
			}
		}
	}()
	return nil
}

// ingester sends one stream's batches in order. Rounds already due when
// the previous send returns go out together as one batch, as a client
// would send what piled up while it waited: a slow acknowledgement (a
// WAL fsync) then delays the rounds behind it instead of queueing them
// one commit each.
func (d *harness) ingester(stream string, jobs <-chan ingestJob) {
	defer d.ingWG.Done()
	var next *ingestJob // taken from the channel but not due yet
	for {
		var j ingestJob
		if next != nil {
			j, next = *next, nil
		} else {
			var ok bool
			if j, ok = <-jobs; !ok {
				return
			}
		}
		if j.open {
			if wait := time.Until(time.Unix(0, j.due)); wait > 0 {
				time.Sleep(wait)
			}
		}
		batch := []ingestJob{j}
		now := time.Now().UnixNano()
	drain:
		for len(batch) < maxCoalesce {
			select {
			case nj, ok := <-jobs:
				if !ok {
					break drain
				}
				if nj.open && nj.due > now {
					next = &nj
					break drain
				}
				batch = append(batch, nj)
			default:
				break drain
			}
		}
		d.lagMu.Lock()
		for _, b := range batch {
			if b.open {
				d.lags = append(d.lags, now-b.due)
			}
		}
		d.lagMu.Unlock()
		cols := concat(batch)
		n := int64(cols[0].Len())
		var span int
		if d.tracing.Load() {
			span = d.tr.begin("datacell.IngestColumns", 0)
		}
		if err := d.eng.IngestColumns(d.ctx, stream, cols); err != nil {
			d.opFails.Add(n)
			fmt.Fprintf(os.Stderr, "perfbench: ingest %s: %v\n", stream, err)
		}
		if span != 0 {
			d.tr.endRows(span, n)
		}
		d.attempted.Add(n)
		for _, b := range batch {
			if b.done != nil {
				b.done.Done()
			}
		}
	}
}

// concat joins the batches of several jobs column by column.
func concat(jobs []ingestJob) []*vector.Vector {
	if len(jobs) == 1 {
		return jobs[0].cols
	}
	total := 0
	for _, j := range jobs {
		total += j.cols[0].Len()
	}
	out := make([]*vector.Vector, len(jobs[0].cols))
	for c := range out {
		out[c] = vector.NewWithCap(jobs[0].cols[c].Type(), total)
		for _, j := range jobs {
			out[c].AppendVector(j.cols[c])
		}
	}
	return out
}

// sendRound hands one round to the ingesters and returns a wait group
// that completes when every batch of it was acknowledged.
func (d *harness) sendRound(cols [][]*vector.Vector, determined int64, due int64, open bool) *sync.WaitGroup {
	var wg sync.WaitGroup
	d.determined += determined
	for i, c := range cols {
		if c == nil || c[0].Len() == 0 {
			continue
		}
		wg.Add(1)
		d.ingest[i] <- ingestJob{cols: c, due: due, open: open, done: &wg}
	}
	return &wg
}

// openLoop sends at a fixed rate for dur regardless of how the engine
// keeps up, and returns the due-time range it covered.
func (d *harness) openLoop(rate float64, dur time.Duration) (from, to int64) {
	perStream := rate / float64(len(d.sp.streams)) * roundInterval.Seconds()
	start := time.Now().Add(roundInterval)
	rounds := int(dur / roundInterval)
	var last *sync.WaitGroup
	sent := 0.0
	for r := 0; r < rounds; r++ {
		due := start.Add(time.Duration(r) * roundInterval).UnixNano()
		n := int(sent+perStream) - int(sent)
		sent += perStream
		if n == 0 {
			continue
		}
		cols, det := d.w.round(due, n)
		last = d.sendRound(cols, det, due, true)
	}
	if last != nil {
		last.Wait()
	}
	return start.UnixNano(), start.Add(time.Duration(rounds) * roundInterval).UnixNano()
}

// closedLoop generates rounds as fast as results come back, keeping at
// most inflightRounds rounds with undelivered results, for segs
// segments of segmentLen. Per segment it returns the input tuples per
// second whose results were all delivered, and the peak heap in use.
func (d *harness) closedLoop(segs int) (tps, peakHeap []float64) {
	base := d.determined
	var cum []int64 // results completed by rounds 0..r, relative to base
	var tuples []int64
	total := int64(0)
	// done counts the tuples of the rounds whose results were all
	// delivered, plus the delivered share of the next round, so a
	// segment's count is not rounded to whole rounds.
	done := func() float64 {
		got := d.delivered.Load() - base
		var prevCum, prevTuples int64
		for r := range cum {
			if cum[r] > got {
				share := float64(got-prevCum) / float64(cum[r]-prevCum)
				return float64(prevTuples) + share*float64(tuples[r]-prevTuples)
			}
			prevCum, prevTuples = cum[r], tuples[r]
		}
		return float64(prevTuples)
	}
	for seg := 0; seg < segs; seg++ {
		stopHeap := make(chan struct{})
		heapDone := make(chan float64)
		go func() { heapDone <- sampleHeap(stopHeap) }()
		start := time.Now()
		deadline := start.Add(segmentLen)
		from := done()
		for time.Now().Before(deadline) {
			r := len(cum)
			if r >= inflightRounds {
				need := base + cum[r-inflightRounds]
				for d.delivered.Load() < need && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
				if d.delivered.Load() < need {
					break
				}
			}
			now := time.Now().UnixNano()
			cols, det := d.w.round(now, d.sp.closedBatch)
			d.sendRound(cols, det, now, false)
			total += int64(d.sp.closedBatch * len(d.sp.streams))
			prev := int64(0)
			if r > 0 {
				prev = cum[r-1]
			}
			cum = append(cum, prev+det)
			tuples = append(tuples, total)
		}
		tps = append(tps, (done()-from)/time.Since(start).Seconds())
		close(stopHeap)
		peakHeap = append(peakHeap, <-heapDone)
	}
	return tps, peakHeap
}

// segments splits the measured time into whole segments: two fifths
// closed loop, the rest open loop.
func (d *harness) segments() (closed, open int) {
	total := int(d.measure / segmentLen)
	closed = max(1, total*2/5)
	open = max(2, total-closed)
	return closed, open
}

// settle waits until every result the sent rounds completed was
// delivered.
func (d *harness) settle() error {
	deadline := time.Now().Add(settleTimeout)
	for d.delivered.Load() < d.determined {
		if time.Now().After(deadline) {
			return fmt.Errorf("results missing after %v: delivered %d of %d", settleTimeout, d.delivered.Load(), d.determined)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// heapMetric is the live heap: bytes in reachable or not-yet-swept
// objects, the runtime's "heap in use".
const heapMetric = "/memory/classes/heap/objects:bytes"

func sampleHeap(stop <-chan struct{}) float64 {
	s := []metrics.Sample{{Name: heapMetric}}
	peak := 0.0
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		if v := float64(s[0].Value.Uint64()); v > peak {
			peak = v
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}

// recovery measures datacell.Open on a crash image: a fresh durable
// engine runs the workload's set-up, ingests a fixed prefix, takes an
// explicit checkpoint, ingests a fixed tail, and its data directory is
// copied while it is still open. recovery_s is the fastest Open over
// recoveryOpens copies; each recovered engine must report the
// acknowledged tuple counts.
func (d *harness) recovery() (float64, error) {
	const prefixRounds, tailRounds = 20, 160
	dir := filepath.Join(d.dir, "recovery")
	cfg := d.w.config(dir)
	cfg.DataDir = dir
	cfg.CheckpointInterval = -1
	eng, err := datacell.Open(d.ctx, cfg)
	if err != nil {
		return 0, fmt.Errorf("recovery open: %w", err)
	}
	defer eng.Stop(context.Background())
	if err := d.w.setup(d.ctx, eng, nil); err != nil {
		return 0, fmt.Errorf("recovery setup: %w", err)
	}
	acked := map[string]int64{}
	for r := 0; r < prefixRounds+tailRounds; r++ {
		if r == prefixRounds {
			if err := eng.Checkpoint(d.ctx); err != nil {
				return 0, fmt.Errorf("recovery checkpoint: %w", err)
			}
		}
		cols, _ := d.w.round(time.Now().UnixNano(), d.sp.closedBatch)
		for i, c := range cols {
			if c == nil || c[0].Len() == 0 {
				continue
			}
			if err := eng.IngestColumns(d.ctx, d.sp.streams[i], c); err != nil {
				return 0, fmt.Errorf("recovery ingest: %w", err)
			}
			acked[d.sp.streams[i]] += int64(c[0].Len())
		}
	}
	var copies []string
	for i := 0; i < recoveryOpens; i++ {
		dst := filepath.Join(d.dir, fmt.Sprintf("crash-%d", i))
		if err := copyDir(dir, dst); err != nil {
			return 0, err
		}
		copies = append(copies, dst)
	}
	if err := eng.Stop(context.Background()); err != nil {
		return 0, err
	}
	var times []float64
	for _, c := range copies {
		cfg := d.w.config(c)
		cfg.DataDir = c
		cfg.CheckpointInterval = -1
		runtime.GC()
		start := time.Now()
		rec, err := datacell.Open(d.ctx, cfg)
		if err != nil {
			return 0, fmt.Errorf("recovery: open crash image: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		for s, n := range acked {
			if got := rec.Ingested(s); got != n {
				_ = rec.Stop(context.Background())
				return 0, fmt.Errorf("recovery: stream %s recovered %d tuples, %d were acknowledged", s, got, n)
			}
		}
		if err := rec.Stop(context.Background()); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(c); err != nil {
			return 0, err
		}
	}
	return quantile(times, 0), nil
}

// copyDir copies the regular files of a directory tree and syncs them,
// so the crash image is on disk before Open is timed, as after a real
// crash: Open's own fsyncs then do not pay for writing back the copy.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) {
			return nil // removed by a concurrent segment rotation or checkpoint
		}
		if err != nil {
			return err
		}
		f, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := f.Write(b); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
}

// gcFraction and allocBytes read the runtime's cumulative counters.
func runtimeCounters() (gcCPU, totalCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())
}

// replayRounds regenerates a workload's first rounds (a fresh instance
// from the same seed produces the run's own inputs) for the replay spans.
func replayRounds(w workload, fn func(cols []*vector.Vector)) {
	const rounds = 200
	sp := w.spec()
	for r := 0; r < rounds; r++ {
		cols, _ := w.round(int64(r)*int64(time.Millisecond), sp.closedBatch)
		for _, c := range cols {
			if c != nil {
				fn(c)
			}
		}
	}
}

// cpuSteal reads the host's cumulative CPU time stolen by other guests
// and all CPU time, in ticks (Linux /proc/stat; zeros elsewhere).
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// ioStall reads the cumulative time, in microseconds, in which some task
// on the host waited for I/O (Linux pressure stall information; 0
// elsewhere). The WAL's fsyncs share the disk with other guests.
func ioStall() float64 {
	b, err := os.ReadFile("/proc/pressure/io")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	_, total, _ := strings.Cut(line, "total=")
	v, _ := strconv.ParseFloat(strings.TrimSpace(total), 64)
	return v
}

// stealSince is the share of CPU time stolen since an earlier reading.
func stealSince(steal0, total0 float64) float64 {
	steal, total := cpuSteal()
	return ratio(steal-steal0, total-total0)
}
