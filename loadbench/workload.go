package main

import (
	"fmt"
	"math/rand"

	"promips/internal/dataset"
)

// Every workload serves the Netflix analogue at its paper size and asks
// for the top 10.
const (
	dataN = 17770
	topK  = 10
)

// workload is one traffic mix against one index layout. Rates are
// per-second open-loop arrival rates; durations are shares of the run's
// --seconds so a short run keeps the same shape.
type workload struct {
	name string

	shards      int // index layout: 1 = promips.Build, >1 = shard.Build
	poolPages   int // per-file buffer pool in pages (0 = index default)
	segEntries  int // inserts per frozen segment (0 = index default)
	autoCompact int // promipsd -auto-compact watermark (0 = off)

	shifted bool // queries from Spec.Queries instead of held-out points
	queries int  // query pool size
	warmup  int  // searches that end each set-up
	// qualityQueries is how many pool queries score recall and ratio
	// against exact answers.
	qualityQueries int
	// layerQueries is how many pool queries the traced run's layer pass
	// sends through every layer in turn.
	layerQueries int

	// The open-loop phase: searches (and, for mixed-rw, inserts) at fixed
	// rates for openShare of the run.
	searchRate, insertRate float64
	openShare              float64
	// The closed-loop phase (read workloads only): two connections
	// searching back to back for the rest of the run.
	closedShare float64
}

// The rates keep each connection busy a third of the time or less: on a
// shared machine a busier server turns every slowdown of the host into a
// queue, and the latency into a measure of the neighbours. Every index
// journals under the default FsyncAlways.
var workloads = []workload{
	{
		// The common recommender path: queries are points of the data's own
		// draw, never indexed; Quick-Probe, PQ pruning and the wire do the
		// work, and the pool holds every page of the 24.3 MB vector file.
		name:   "heldout-fit",
		shards: 1, poolPages: 8192,
		queries: 1000, warmup: 200, qualityQueries: 200, layerQueries: 300,
		searchRate: 60, openShare: 0.88,
		closedShare: 0.12,
	},
	{
		// Queries off the item axes: verification dominates (about 10k dot
		// products and 7k pool misses per query in the 4 MB default pool)
		// and pruning does nothing.
		name:    "shifted-spill",
		shards:  1,
		shifted: true, queries: 200, warmup: 20, qualityQueries: 60, layerQueries: 40,
		searchRate: 10, openShare: 0.9,
		closedShare: 0.1,
	},
	{
		// The heldout-fit path beside durable writes: the only workload
		// through the journal, freeze/flush/fold and the shard fan-out. No
		// deletes: folds reassign ids and the wire carries no remap.
		name:   "mixed-rw",
		shards: 2, poolPages: 8192, segEntries: 256, autoCompact: 2,
		queries: 200, warmup: 100, qualityQueries: 200, layerQueries: 200,
		searchRate: 50, insertRate: 100, openShare: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// phaseOps is the number of operations a fixed-rate phase schedules.
func phaseOps(rate, share float64, seconds int) int {
	return int(rate * share * float64(seconds))
}

// inputs is everything the benchmark feeds the system, derived from the
// seed alone.
type inputs struct {
	data    [][]float32 // the indexed points
	queries [][]float32 // the query pool, in the order the phases cycle through it
	inserts [][]float32 // vectors the open loop inserts, in order
	// layerVecs are the vectors the traced run's layer pass inserts
	// into an in-process shard copy.
	layerVecs [][]float32
}

// makeInputs draws the data, the held-out queries and the insert vectors
// from one Generate call, keeping the first dataN points as data; shifted
// queries come from Spec.Queries' disjoint seed stream instead.
func makeInputs(w workload, seed int64, seconds int) inputs {
	spec := dataset.Netflix()
	nIns := phaseOps(w.insertRate, w.openShare, seconds)
	held := w.queries
	if w.shifted {
		held = 0
	}
	all := spec.Generate(dataN+held+nIns+layerInserts, seed)
	in := inputs{
		data:      all[:dataN],
		queries:   all[dataN : dataN+held],
		inserts:   all[dataN+held : dataN+held+nIns],
		layerVecs: all[dataN+held+nIns:],
	}
	if w.shifted {
		in.queries = spec.Queries(w.queries, seed)
	}
	rand.New(rand.NewSource(seed^0x5eed)).Shuffle(len(in.queries), func(i, j int) {
		in.queries[i], in.queries[j] = in.queries[j], in.queries[i]
	})
	return in
}

// slot is the pool position of the i-th search of a phase.
func (in inputs) slot(i int) int { return i % len(in.queries) }
