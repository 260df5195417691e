package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"promips"
	"promips/client"
	"promips/shard"
)

// setupReps is how many times a run builds, saves, starts and warms the
// server; setup_s is their median and the last one serves the phases.
const setupReps = 5

// failLatencyMs stands in for the latency of a request that failed, so a
// failure counts as missing any latency limit below the request deadline.
const failLatencyMs = 5000

// bench is one run of one workload.
type bench struct {
	cfg config
	w   workload
	in  inputs
	dir string
	out io.Writer
	tr  *tracer

	buildSeed int64 // index seed of the latest set-up
	d         *daemon
	ixDir     string
	lg        *loadgen
	tally     tally

	recall, ratio []float64 // per answered quality-pass query

	metrics map[string]float64
	notes   map[string]string // sample counts and caveats printed beside a metric
}

func (b *bench) set(name string, v float64, note string) {
	b.metrics[name] = v
	if note != "" {
		b.notes[name] = "  (" + note + ")"
	}
}

func (b *bench) run() error {
	b.metrics, b.notes = map[string]float64{}, map[string]string{}
	w := b.w
	secs := b.cfg.seconds
	defer func() {
		if b.d != nil {
			b.d.stop()
		}
	}()
	gt, err := b.setup()
	if err != nil {
		return err
	}
	b.lg = newLoadgen(b.d.base, b.in, b.tr)

	nOpenIns := phaseOps(w.insertRate, w.openShare, secs)
	ops := schedule(opSearch, phaseOps(w.searchRate, w.openShare, secs), w.searchRate)
	if nOpenIns > 0 {
		ops = merge(ops, schedule(opInsert, nOpenIns, w.insertRate))
	}
	var sampler *statsSampler
	if b.cfg.trace {
		sampler = startSampler(b.lg.cl)
	}
	open := b.lg.openLoop(ops)
	b.phaseLine("open-loop", open)
	if b.cfg.trace {
		segs, cache := sampler.stop()
		b.set("core.segments_mean", segs, "server, sampled every 250 ms")
		b.setCacheMetrics(cache, countKind(open, opSearch))
		b.setLoadgenMetrics(open)
	}

	// Space and the update counters are read once every flush and fold
	// has finished; no later phase writes.
	final, err := b.quiesce()
	if err != nil {
		return err
	}
	acked := map[int]bool{}
	if nOpenIns > 0 {
		// mixed-rw: answers are checked by value, and quality is measured
		// on the quiesced index, so it does not depend on how the inserts,
		// flushes and folds interleaved.
		for _, o := range open {
			if o.kind == opInsert && o.err == nil {
				acked[o.item] = true
			}
		}
		held := append(append([][]float32(nil), b.in.data...), b.in.inserts...)
		live := append([][]float32(nil), b.in.data...)
		for i, v := range b.in.inserts {
			if acked[i] {
				live = append(live, v)
			}
		}
		gt = computeTruth(b.in, len(b.in.queries), live, held)
		b.qualityPass(b.lg.cl, gt)
	}
	var closed []outcome
	var closedFor time.Duration
	if w.closedShare > 0 {
		closed, closedFor = b.lg.closedLoop(seconds(w.closedShare, secs))
		b.phaseLine("closed-loop", closed)
	}
	b.checkSearches(open, gt)
	b.checkSearches(closed, gt)
	b.tallyInserts(open)
	if b.cfg.trace {
		lay, err := b.prepareLayers(acked)
		if err != nil {
			return err
		}
		err = b.measureLayers(lay, gt)
		lay.close()
		if err != nil {
			return err
		}
	}
	b.setEndToEnd(open, closed, closedFor)
	space, err := dirBytes(b.ixDir)
	if err != nil {
		return err
	}
	b.set("space_amp", float64(space)/float64(final.Live*final.Dim*4), fmt.Sprintf("%d B on disk, %d live vectors", space, final.Live))
	rss, err := b.d.peakRSSMB()
	if err != nil {
		return err
	}
	b.set("server_rss_mb", rss, "VmHWM")
	if b.cfg.trace {
		b.setUpdateMetrics(final)
		b.set("promipsd.rejected", float64(b.tally.rejected), "429 answers, all phases")
	}
	d := b.d
	b.d = nil
	if err := d.stop(); err != nil {
		return fmt.Errorf("promipsd shutdown: %w; log tail:\n%s", err, d.logTail())
	}
	return nil
}

func seconds(share float64, s int) time.Duration {
	return time.Duration(share * float64(s) * float64(time.Second))
}

// setup builds, saves, starts and warms the server setupReps times; the
// last server stays up and serves the phases. Each set-up but the last
// draws its own data and queries from a seed derived from the run's, and
// every build has its own index seed. On the read workloads each server
// also answers a quality pass, so recall and ratio average over setupReps
// datasets and builds: a dataset, and the random projections of a build,
// each move recall by several points. It returns the exact answers for the
// served inputs (read workloads only: mixed-rw's depend on which inserts
// are acknowledged).
func (b *bench) setup() (truth, error) {
	var total, build, ready, warm []float64
	var gt truth
	for r := 0; r < setupReps; r++ {
		in := b.in
		if r < setupReps-1 {
			in = makeInputs(b.w, b.cfg.seed^int64(r+1)<<32, 0)
		}
		if b.w.insertRate == 0 {
			gt = computeTruth(in, b.w.qualityQueries, in.data, nil)
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("index-%d", r))
		b.buildSeed = b.cfg.seed + int64(r)
		st, err := b.setupOnce(dir, in)
		if err != nil {
			return gt, err
		}
		total = append(total, (st.build + st.ready + st.warm).Seconds())
		build = append(build, st.build.Seconds())
		ready = append(ready, st.ready.Seconds())
		warm = append(warm, st.warm.Seconds())
		if gt.top != nil {
			b.qualityPass(client.New(b.d.base), gt)
		}
		if r < setupReps-1 {
			if err := b.d.stop(); err != nil {
				return gt, fmt.Errorf("promipsd shutdown after set-up %d: %w", r, err)
			}
			os.RemoveAll(dir)
		}
	}
	b.set("setup_s", median(total), fmt.Sprintf("median of %d", setupReps))
	b.set("promips.build_s", median(build), "build + save")
	b.set("promipsd.ready_s", median(ready), "start until /v1/readyz")
	b.set("promips.warm_s", median(warm), fmt.Sprintf("%d searches", b.w.warmup))
	fmt.Fprintf(b.out, "set-up: %.3fs median of %v\n", median(total), total)
	return gt, nil
}

type setupTimes struct{ build, ready, warm time.Duration }

func (b *bench) setupOnce(dir string, in inputs) (setupTimes, error) {
	var st setupTimes
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st, err
	}
	w := b.w
	var err error
	st.build = b.tr.timed("promips.build", 0, func() { err = buildIndex(in.data, w.shards, b.indexOptions(dir)) })
	if err != nil {
		return st, err
	}
	t0 := time.Now()
	d, err := startDaemon(b.cfg.promipsd, dir, w.autoCompact, filepath.Join(b.dir, "promipsd.log"))
	if err != nil {
		return st, err
	}
	b.d, b.ixDir = d, dir
	if err := d.waitReady(60 * time.Second); err != nil {
		return st, err
	}
	st.ready = time.Since(t0)
	b.tr.record("promipsd.ready", 0, t0, time.Now(), 0)
	cl := client.New(d.base)
	st.warm = b.tr.timed("promips.warm", 0, func() {
		for i := 0; i < w.warmup && err == nil; i++ {
			ctx, cancel := ctxTimeout()
			_, err = cl.Search(ctx, client.SearchRequest{Vector: in.queries[in.slot(i)], K: topK})
			cancel()
		}
	})
	if err != nil {
		return st, fmt.Errorf("warm-up search: %w", err)
	}
	return st, nil
}

// indexOptions are the build options of the workload's index.
func (b *bench) indexOptions(dir string) promips.Options {
	w := b.w
	return promips.Options{Dir: dir, PoolSize: w.poolPages, SegmentEntries: w.segEntries, Seed: b.buildSeed}
}

// buildIndex builds and saves the served index: a plain promips index for
// one shard, a sharded one otherwise.
func buildIndex(data [][]float32, shards int, opts promips.Options) error {
	var ix interface {
		Save() error
		Close() error
	}
	var err error
	if shards == 1 {
		ix, err = promips.Build(data, opts)
	} else {
		ix, err = shard.Build(data, shard.Options{Shards: shards, Dir: opts.Dir, Index: opts})
	}
	if err != nil {
		return err
	}
	if err := ix.Save(); err != nil {
		ix.Close()
		return err
	}
	return ix.Close()
}

func (b *bench) stats() (client.StatsResponse, error) {
	ctx, cancel := ctxTimeout()
	defer cancel()
	st, err := b.lg.cl.Stats(ctx)
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// quiesce waits until every frozen segment is flushed and the update
// counters have not moved for longer than the auto-compactor's poll and a
// fold take together, and returns the settled stats.
func (b *bench) quiesce() (client.StatsResponse, error) {
	const settle = 2500 * time.Millisecond
	deadline := time.Now().Add(60 * time.Second)
	type key struct {
		live, segs, flushed    int
		freezes, flushes, runs int64
	}
	var last key
	var since time.Time
	for {
		st, err := b.stats()
		if err != nil {
			return st, err
		}
		u := st.Updates
		if u == nil || u.Freezes == 0 {
			return st, nil // nothing was frozen, so nothing runs in the background
		}
		k := key{st.Live, u.Segments, u.FlushedSegments, u.Freezes, u.Flushes, 0}
		if st.AutoCompact != nil {
			k.runs = st.AutoCompact.Runs
		}
		if k != last || u.Segments != u.FlushedSegments {
			last, since = k, time.Now()
		} else if time.Since(since) >= settle {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, errors.New("update pipeline did not settle within 60s")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// qualityPass sends the first len(gt.top) pool queries once each, over
// conns connections, checks every answer and scores it against the exact
// top-k.
func (b *bench) qualityPass(cl *client.Client, gt truth) {
	answers := make([][]promips.Result, len(gt.top))
	errs := make([]error, len(gt.top))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for slot := w; slot < len(gt.top); slot += conns {
				ctx, cancel := ctxTimeout()
				resp, err := cl.Search(ctx, client.SearchRequest{Vector: gt.in.queries[slot], K: topK})
				cancel()
				answers[slot], errs[slot] = resp.Results, err
			}
		}()
	}
	wg.Wait()
	for slot, err := range errs {
		wrong := false
		if err == nil {
			if err = gt.check(slot, answers[slot]); err != nil {
				err, wrong = fmt.Errorf("quality pass query %d: %w", slot, err), true
			} else {
				r, o := quality(gt.top[slot], answers[slot])
				b.recall, b.ratio = append(b.recall, r), append(b.ratio, o)
			}
		}
		b.tally.add(err, wrong)
	}
}

// checkSearches checks every search answer of a phase.
func (b *bench) checkSearches(outs []outcome, gt truth) {
	for i := range outs {
		o := &outs[i]
		if o.kind != opSearch {
			continue
		}
		wrong := false
		if o.err == nil {
			slot := b.in.slot(o.item)
			if err := gt.check(slot, o.res); err != nil {
				o.err, wrong = fmt.Errorf("query %d: %w", slot, err), true
			}
		}
		b.tally.add(o.err, wrong)
	}
}

// tallyInserts counts the inserts of a phase. Folds reassign ids, so an
// acknowledged id is not checked; the by-value search checks and the
// quiesced quality pass see whether the vectors arrived.
func (b *bench) tallyInserts(outs []outcome) {
	for _, o := range outs {
		if o.kind == opInsert {
			b.tally.add(o.err, false)
		}
	}
}

func countKind(outs []outcome, k opKind) int {
	n := 0
	for _, o := range outs {
		if o.kind == k {
			n++
		}
	}
	return n
}

// latencies returns the latency of every outcome of kind k, a failure
// counting as failLatencyMs.
func latencies(outs []outcome, k opKind) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.kind != k {
			continue
		}
		l := o.latencyMs()
		if o.err != nil {
			l = max(l, failLatencyMs)
		}
		xs = append(xs, l)
	}
	return xs
}

func (b *bench) phaseLine(name string, outs []outcome) {
	for _, k := range []opKind{opSearch, opInsert} {
		sent, failed := 0, 0
		var late []float64
		for _, o := range outs {
			if o.kind != k {
				continue
			}
			sent++
			if o.err != nil {
				failed++
			}
			late = append(late, o.lateMs())
		}
		if sent == 0 {
			continue
		}
		kind := map[opKind]string{opSearch: "searches", opInsert: "inserts"}[k]
		fmt.Fprintf(b.out, "phase %-11s %-8s sent %5d  succeeded %5d  failed %3d  late p99 %.3f ms\n",
			name, kind, sent, sent-failed, failed, percentile(late, 0.99))
	}
}

// setLoadgenMetrics reports how late the generator sent and what tracing
// every other open-loop request cost.
func (b *bench) setLoadgenMetrics(open []outcome) {
	var late, traced, plain []float64
	for _, o := range open {
		late = append(late, o.lateMs())
		if o.kind != opSearch || o.err != nil {
			continue
		}
		if o.traced {
			traced = append(traced, o.latencyMs())
		} else {
			plain = append(plain, o.latencyMs())
		}
	}
	b.set("loadgen.late_ms_p99", percentile(late, 0.99), fmt.Sprintf("n=%d, validity check", len(late)))
	b.set("trace.overhead_ms_p50", median(traced)-median(plain), fmt.Sprintf("traced minus untraced p50, %d+%d interleaved searches", len(traced), len(plain)))
}

// setEndToEnd reports the client-side metrics. The search tail, the
// closed-loop rate and the update latencies are not gated: on a shared
// two-core machine one neighbour's burst decides a tail percentile, a
// saturating closed loop tracks the host's load, and fsync latency flips
// between regimes and takes mixed-rw's search tail with it, so those swing
// by a quarter or more between runs of the same code. They are printed by
// every run and reported by the traced run; a workload without the phase
// reports 0.
func (b *bench) setEndToEnd(open, closed []outcome, closedFor time.Duration) {
	lat := latencies(open, opSearch)
	n := fmt.Sprintf("n=%d open-loop at %g/s", len(lat), b.w.searchRate)
	b.set("search_p50_ms", median(lat), n)
	b.set("loadgen.search_p90_ms", percentile(lat, 0.9), n)
	b.set("loadgen.search_p99_ms", percentile(lat, 0.99), n)
	if closedFor > 0 {
		ok := 0
		for _, o := range closed {
			if o.err == nil {
				ok++
			}
		}
		b.set("loadgen.search_qps_max", float64(ok)/closedFor.Seconds(), fmt.Sprintf("%d searches in %.1fs, %d connections, closed loop", ok, closedFor.Seconds(), conns))
	} else {
		b.set("loadgen.search_qps_max", 0, "no closed loop on this workload")
	}
	ul := latencies(open, opInsert)
	un := fmt.Sprintf("n=%d FsyncAlways", len(ul))
	if len(ul) == 0 {
		un = "no inserts on this workload"
	}
	b.set("loadgen.update_p50_ms", median(ul), un)
	b.set("loadgen.update_p90_ms", percentile(ul, 0.9), un)
	b.set("loadgen.update_p99_ms", percentile(ul, 0.99), un)
	b.set("ok_frac", float64(b.tally.ok)/float64(b.tally.attempted), fmt.Sprintf("%d of %d", b.tally.ok, b.tally.attempted))
	qn := fmt.Sprintf("%d answers", len(b.recall))
	b.set("recall_at_10", mean(b.recall), qn)
	b.set("overall_ratio", mean(b.ratio), qn)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// statsSampler polls /v1/stats during a phase: it averages the number of
// frozen segments awaiting compaction and sums the growth of the
// buffer-pool counters between samples. A fold swaps in a shard generation
// whose counters start from zero, and /v1/stats sums the shards, so the
// interval in which the total drops is left out: the counters cover only
// reads between two samples of one generation, an undercount of one
// interval per fold.
type statsSampler struct {
	cl    *client.Client
	stopc chan struct{}
	done  chan struct{}
	segs  []float64
	cache promips.CacheStats
	last  *promips.CacheStats
}

func startSampler(cl *client.Client) *statsSampler {
	s := &statsSampler{cl: cl, stopc: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
			}
			s.sample()
		}
	}()
	return s
}

func (s *statsSampler) sample() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	st, err := s.cl.Stats(ctx)
	if err != nil {
		return
	}
	if st.Updates != nil {
		s.segs = append(s.segs, float64(st.Updates.Segments))
	}
	cur := st.Cache
	if s.last != nil && cur.Accesses >= s.last.Accesses {
		s.cache = s.cache.Add(cur.Sub(*s.last))
	}
	s.last = &cur
}

// stop takes a last sample and returns the mean segment count and the
// summed cache counters.
func (s *statsSampler) stop() (float64, promips.CacheStats) {
	close(s.stopc)
	<-s.done
	s.sample()
	return mean(s.segs), s.cache
}
