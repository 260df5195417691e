package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"promips"
	"promips/client"
	"promips/internal/vec"
	"promips/shard"
)

// Sizes of the traced run's layer passes. layerInserts is enough to
// freeze one mixed-rw segment in a shard copy.
const (
	layerInserts = 300
	dotPasses    = 5
)

// layers holds the in-process copies the traced run times: the served
// index rebuilt from the same inputs and options, with the inserts the
// server acknowledged applied and folded in, and each of its shards opened
// on its own.
type layers struct {
	top       *shard.Index
	children  []*promips.Index
	childOpts []promips.SearchOption
}

func (l *layers) close() {
	l.top.Close()
	for _, c := range l.children {
		c.Close()
	}
}

// prepareLayers builds the copies. acked holds the open-loop inserts the
// server acknowledged; they go into the copy in the order they were sent,
// and one Compact folds them, as the server's auto-compactor did.
func (b *bench) prepareLayers(acked map[int]bool) (*layers, error) {
	w := b.w
	dir := filepath.Join(b.dir, "inproc")
	top, err := shard.Build(b.in.data, shard.Options{Shards: w.shards, Dir: dir, Index: b.indexOptions("")})
	if err != nil {
		return nil, fmt.Errorf("in-process copy: %w", err)
	}
	l := &layers{top: top}
	for i, v := range b.in.inserts {
		if !acked[i] {
			continue
		}
		if _, err := top.Insert(v); err != nil {
			l.close()
			return nil, fmt.Errorf("in-process copy insert: %w", err)
		}
	}
	if len(acked) > 0 {
		if _, err := top.Compact(context.Background()); err != nil {
			l.close()
			return nil, fmt.Errorf("in-process copy compact: %w", err)
		}
	}
	if err := top.Save(); err != nil {
		l.close()
		return nil, err
	}
	for s := 0; s < w.shards; s++ {
		dst := filepath.Join(b.dir, fmt.Sprintf("child-%d", s))
		if err := copyDir(filepath.Join(dir, fmt.Sprintf("shard-%03d", s)), dst); err != nil {
			l.close()
			return nil, err
		}
		c, err := promips.Open(dst)
		if err != nil {
			l.close()
			return nil, err
		}
		l.children = append(l.children, c)
	}
	if w.shards > 1 {
		// The fan-out runs each shard at p' = 1-(1-p)/K (union bound).
		p := top.Options().P
		l.childOpts = []promips.SearchOption{promips.WithP(1 - (1-p)/float64(w.shards))}
	}
	return l, nil
}

// measureLayers runs the layer pass: each of the workload's first
// layerQueries pool queries goes over HTTP, to the in-process copy, and to
// each shard copy in turn, one at a time; then it times the vector kernel
// and Insert/Compact on a shard copy.
func (b *bench) measureLayers(l *layers, gt truth) error {
	ctx := context.Background()
	n := min(b.w.layerQueries, len(b.in.queries))
	var wire, fanout, searchMs []float64
	var cand, pruned, pre, groups, pages, exhausted float64
	bytes0 := b.lg.bytes.Load()
	start := time.Now()
	for i := 0; i < n; i++ {
		q := b.in.queries[i]
		root := b.tr.nextID()
		t0 := time.Now()
		out := b.lg.do(start, op{kind: opSearch, item: i}, false)
		tHTTP := time.Since(t0)
		b.tr.record("http.search", root, t0, t0.Add(tHTTP), 0)
		wrong := false
		if out.err == nil {
			if err := gt.check(i, out.res); err != nil {
				out.err, wrong = fmt.Errorf("layer pass query %d: %w", i, err), true
			}
		}
		b.tally.add(out.err, wrong)

		var res []promips.Result
		var st promips.SearchStats
		var err error
		tTop := b.tr.timed("shard.search", root, func() { res, st, err = l.top.Search(ctx, q, topK) })
		if err == nil {
			err = gt.check(i, res)
		}
		if err != nil {
			return fmt.Errorf("in-process search of query %d: %w", i, err)
		}
		var slowest time.Duration
		for s, c := range l.children {
			t := b.tr.timed(fmt.Sprintf("promips.search/shard-%d", s), root, func() { _, _, err = c.Search(ctx, q, topK, l.childOpts...) })
			if err != nil {
				return fmt.Errorf("shard %d search of query %d: %w", s, i, err)
			}
			slowest = max(slowest, t)
		}
		b.tr.add(span{ID: root, Name: "query", Start: int64(t0.Sub(b.tr.t0)), End: int64(time.Since(b.tr.t0))})
		wire = append(wire, ms(tHTTP-tTop))
		fanout = append(fanout, ms(tTop-slowest))
		searchMs = append(searchMs, ms(tTop))
		cand += float64(st.Candidates)
		pruned += float64(st.NormPruned)
		pre += float64(st.Preranked)
		groups += float64(st.GroupsProbed)
		pages += float64(st.PageAccesses)
		if st.TerminatedBy == "exhausted" {
			exhausted++
		}
	}
	nq := float64(n)
	qn := fmt.Sprintf("%d queries", n)
	b.set("promipsd.wire_ms_p50", median(wire), "HTTP round trip minus in-process search, "+qn)
	b.set("promipsd.resp_bytes_per_search", float64(b.lg.bytes.Load()-bytes0)/nq, qn)
	b.set("promips.search_ms_p50", median(searchMs), "in-process, "+qn)
	b.set("promips.search_ms_p99", percentile(searchMs, 0.99), "in-process, "+qn)
	b.set("core.candidates_per_q", cand/nq, qn)
	b.set("core.pruned_per_q", pruned/nq, qn)
	b.set("core.preranked_per_q", pre/nq, qn)
	b.set("core.groups_probed_per_q", groups/nq, qn)
	b.set("core.prune_frac", pruned/(pruned+cand), "pruned / (pruned + verified)")
	b.set("core.useful_frac", topK*nq/cand, "k / verified")
	b.set("core.exhausted_frac", exhausted/nq, qn)
	b.set("pager.pages_per_q", pages/nq, qn)
	b.set("store.bytes_verified_per_q", cand/nq*float64(4*len(b.in.data[0])), "verified x d x 4, computed")
	b.set("shard.fanout_ms_p50", median(fanout), fmt.Sprintf("shard search minus slowest of %d shard copies", len(l.children)))

	dot := b.dotNs()
	b.set("vec.dot_ns", dot, fmt.Sprintf("DotBytes over the %d data vectors, median of %d passes", len(b.in.data), dotPasses))
	b.set("vec.kernel_ms_per_q", cand/nq*dot/1e6, "estimate: verified x dot_ns")
	return b.insertCompact(l.children[0])
}

// dotNs times vec.DotBytes over the data encoded as one slab.
func (b *bench) dotNs() float64 {
	d := len(b.in.data[0])
	slab := make([]byte, 0, len(b.in.data)*4*d)
	for _, v := range b.in.data {
		slab = vec.AppendF32LE(slab, v)
	}
	var per []float64
	var sink float64
	for p := 0; p < dotPasses; p++ {
		q := b.in.queries[p]
		t := b.tr.timed("vec.dotbytes", 0, func() {
			for off := 0; off < len(slab); off += 4 * d {
				sink += vec.DotBytes(slab[off:off+4*d], q)
			}
		})
		per = append(per, float64(t.Nanoseconds())/float64(len(b.in.data)))
	}
	dotSink = sink
	return median(per)
}

// dotSink keeps the timed kernel calls from being optimised away.
var dotSink float64

// insertCompact times Insert (under the workload's journal policy) and
// one Compact on a shard copy.
func (b *bench) insertCompact(c *promips.Index) error {
	var lat []float64
	for _, v := range b.in.layerVecs {
		var err error
		t := b.tr.timed("promips.insert", 0, func() { _, err = c.Insert(v) })
		if err != nil {
			return fmt.Errorf("in-process insert: %w", err)
		}
		lat = append(lat, ms(t))
	}
	b.set("promips.insert_ms_p50", median(lat), fmt.Sprintf("n=%d on a shard copy", len(lat)))
	var err error
	t := b.tr.timed("promips.compact", 0, func() { _, err = c.Compact(context.Background()) })
	if err != nil {
		return fmt.Errorf("in-process compact: %w", err)
	}
	b.set("promips.compact_s", t.Seconds(), fmt.Sprintf("%d points", c.Len()))
	return nil
}

// setCacheMetrics reports the server's buffer-pool traffic over the
// open-loop phase.
func (b *bench) setCacheMetrics(d promips.CacheStats, searches int) {
	b.set("pager.misses_per_q", float64(d.Misses)/float64(searches), fmt.Sprintf("server, %d open-loop searches", searches))
	b.set("pager.hit_ratio", d.HitRatio(), fmt.Sprintf("server, %d page reads", d.Accesses))
}

// setUpdateMetrics reports the server's update pipeline counters at the
// end of the run.
func (b *bench) setUpdateMetrics(st client.StatsResponse) {
	var u promips.UpdateStats
	if st.Updates != nil {
		u = *st.Updates
	}
	b.set("core.freezes", float64(u.Freezes), "server")
	b.set("core.flushes", float64(u.Flushes), "server")
	b.set("core.flush_failures", float64(u.FlushFailures), "server")
	var runs, fails int64
	if st.AutoCompact != nil {
		runs, fails = st.AutoCompact.Runs, st.AutoCompact.Failures
	}
	b.set("promips.autocompact_runs", float64(runs), "server")
	b.set("promips.autocompact_failures", float64(fails), "server")
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
