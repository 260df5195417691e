package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"promips"
	"promips/exact"
	"promips/internal/vec"
	"promips/mips"
)

// relTol is the relative tolerance between a returned inner product and
// the benchmark's own recomputation of it.
const relTol = 1e-6

func near(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Abs(want)
}

// lowBound is the smallest value near accepts as equal to v.
func lowBound(v float64) float64 { return v - relTol*math.Abs(v) }

// checkOrder checks the result count and the descending inner products.
func checkOrder(res []promips.Result) error {
	if len(res) != topK {
		return fmt.Errorf("%d results, want %d", len(res), topK)
	}
	for i := 1; i < len(res); i++ {
		if res[i].IP > res[i-1].IP {
			return fmt.Errorf("result %d ip %v above result %d ip %v", i, res[i].IP, i-1, res[i-1].IP)
		}
	}
	return nil
}

// checkByID verifies a read-workload answer: every (id, ip) must name a
// distinct indexed point whose inner product with q, recomputed here,
// matches.
func checkByID(data [][]float32, q []float32, res []promips.Result) error {
	if err := checkOrder(res); err != nil {
		return err
	}
	seen := make(map[uint32]bool, len(res))
	for i, r := range res {
		if int(r.ID) >= len(data) {
			return fmt.Errorf("result %d: id %d out of range [0,%d)", i, r.ID, len(data))
		}
		if seen[r.ID] {
			return fmt.Errorf("result %d: id %d returned twice", i, r.ID)
		}
		seen[r.ID] = true
		if want := vec.Dot(data[r.ID], q); !near(r.IP, want) {
			return fmt.Errorf("result %d: id %d ip %v, recomputed %v", i, r.ID, r.IP, want)
		}
	}
	return nil
}

// checkByValue verifies an answer whose ids a fold may have reassigned:
// every returned inner product must be the inner product of q with a
// distinct vector the index may hold. ips holds all of those, ascending.
func checkByValue(ips []float64, res []promips.Result) error {
	if err := checkOrder(res); err != nil {
		return err
	}
	used := make(map[int]bool, len(res))
	for i, r := range res {
		slack := 2 * relTol * math.Abs(r.IP)
		j := sort.SearchFloat64s(ips, r.IP-slack)
		for ; j < len(ips) && ips[j] <= r.IP+slack; j++ {
			if near(ips[j], r.IP) && !used[j] {
				break
			}
		}
		if j == len(ips) || ips[j] > r.IP+slack {
			return fmt.Errorf("result %d: ip %v is no indexed vector's inner product", i, r.IP)
		}
		used[j] = true
	}
	return nil
}

// truth holds the exact answers for the first queries of a pool, and the
// inputs every answer is checked against.
type truth struct {
	in  inputs
	top [][]mips.Result // per scored pool query: exact top-k over the live vectors
	all [][]float64     // per pool query: every candidate inner product, ascending (by-value checks only)
}

// computeTruth finds the exact top-k of in's first nq queries over live on
// conns goroutines. A non-nil held, every vector the index may hold, also
// keeps each query's inner products with all of them for checkByValue.
func computeTruth(in inputs, nq int, live, held [][]float32) truth {
	queries := in.queries[:nq]
	t := truth{in: in, top: make([][]mips.Result, nq)}
	if held != nil {
		t.all = make([][]float64, nq)
	}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := w; qi < len(queries); qi += conns {
				q := queries[qi]
				t.top[qi] = exact.TopK(live, q, topK)
				if held != nil {
					all := make([]float64, len(held))
					for i, v := range held {
						all[i] = vec.Dot(v, q)
					}
					sort.Float64s(all)
					t.all[qi] = all
				}
			}
		}()
	}
	wg.Wait()
	return t
}

// check verifies the answer to pool query slot: by id against the data
// on the read workloads, by value where folds reassign ids.
func (t truth) check(slot int, res []promips.Result) error {
	if t.all != nil {
		return checkByValue(t.all[slot], res)
	}
	return checkByID(t.in.data, t.in.queries[slot], res)
}

// quality scores one answer against the exact top-k by inner-product
// value, so an id remap cannot distort it: recall counts returned points
// that reach the exact k-th value, and the overall ratio is the paper's
// (exact.GroundTruth.OverallRatio).
func quality(gt []mips.Result, res []promips.Result) (recall, ratio float64) {
	kth := gt[len(gt)-1].IP
	hits := 0
	for _, r := range res {
		if r.IP >= lowBound(kth) {
			hits++
		}
	}
	got := make([]mips.Result, len(res))
	for i, r := range res {
		got[i] = mips.Result{ID: r.ID, IP: r.IP}
	}
	g := exact.GroundTruth{K: len(gt), Queries: 1, TopK: [][]mips.Result{gt}}
	return float64(min(hits, len(gt))) / float64(len(gt)), g.OverallRatio(0, got)
}
