package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"promips"
	"promips/client"
)

// conns is the load generator's connection count: one per CPU of the
// two-core machines the benchmark is sized for, so the generator cannot
// queue more concurrent work on the server than it has cores.
const conns = 2

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
)

// op is one scheduled request: a search for query pool slot item, or an
// insert of insert vector item.
type op struct {
	kind opKind
	due  time.Duration // send time, from the phase start
	item int
}

// outcome is what one request produced. Latency runs from due, so time a
// request waited for a free connection counts against it; dispatched is
// when the generator released it, so dispatched-due is how late the
// generator itself ran.
type outcome struct {
	op
	dispatched time.Duration
	done       time.Duration
	res        []promips.Result
	err        error
	traced     bool
}

func (o outcome) latencyMs() float64 { return ms(o.done - o.due) }
func (o outcome) lateMs() float64    { return ms(o.dispatched - o.due) }

// ctxTimeout is the deadline every benchmark request runs under; a request
// that misses it counts as failed.
func ctxTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loadgen drives one promipsd through the client package.
type loadgen struct {
	cl    *client.Client
	in    inputs
	tr    *tracer // nil when tracing is off
	bytes atomic.Int64
}

func newLoadgen(base string, in inputs, tr *tracer) *loadgen {
	g := &loadgen{in: in, tr: tr}
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	if tr != nil {
		rt = countingTransport{rt, &g.bytes}
	}
	g.cl = client.New(base, client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 10 * time.Second}))
	return g
}

// do sends one request. start anchors the phase clock.
func (g *loadgen) do(start time.Time, o op, traced bool) outcome {
	out := outcome{op: o, traced: traced}
	ctx, cancel := ctxTimeout()
	defer cancel()
	t0 := time.Now()
	name := "http.search"
	switch o.kind {
	case opSearch:
		var resp client.SearchResponse
		resp, out.err = g.cl.Search(ctx, client.SearchRequest{Vector: g.in.queries[g.in.slot(o.item)], K: topK})
		out.res = resp.Results
	case opInsert:
		name = "http.insert"
		_, out.err = g.cl.Insert(ctx, g.in.inserts[o.item])
	}
	t1 := time.Now()
	out.done = t1.Sub(start)
	if traced {
		g.tr.record(name, 0, t0, t1, int64(o.due))
	}
	return out
}

// openLoop sends ops at their due times over conns connections and
// returns one outcome per op. A phase that mixes searches and inserts
// gives each kind its own connection, as a separate reader and writer
// would have: a search never queues behind an insert waiting for its
// fsync. With a tracer, every other request is traced, so traced and
// untraced latencies share the same conditions.
func (g *loadgen) openLoop(ops []op) []outcome {
	out := make([]outcome, len(ops))
	dispatched := make([]time.Duration, len(ops))
	queues := []chan int{make(chan int, len(ops))} // sized to the number of sends: the scheduler never blocks
	for _, o := range ops {
		if o.kind != ops[0].kind {
			queues = []chan int{make(chan int, len(ops)), make(chan int, len(ops))}
			break
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queues[w%len(queues)] {
				out[i] = g.do(start, ops[i], g.tr != nil && i%2 == 1)
			}
		}()
	}
	for i, o := range ops {
		if d := time.Until(start.Add(o.due)); d > 0 {
			time.Sleep(d)
		}
		dispatched[i] = time.Since(start)
		queues[int(o.kind)%len(queues)] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	for i := range out {
		out[i].dispatched = dispatched[i]
	}
	return out
}

// closedLoop keeps conns searches in flight for d, each connection
// sending its next query as soon as the previous answer arrives. It
// returns the outcomes and the measured interval.
func (g *loadgen) closedLoop(d time.Duration) ([]outcome, time.Duration) {
	var seq atomic.Int64
	per := make([][]outcome, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(seq.Add(1) - 1)
				o := op{kind: opSearch, due: time.Since(start), item: i}
				out := g.do(start, o, g.tr != nil)
				out.dispatched = o.due
				per[w] = append(per[w], out)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []outcome
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// schedule lays n requests of one kind evenly at rate/s.
func schedule(kind opKind, n int, rate float64) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: kind, due: time.Duration(float64(i) / rate * float64(time.Second)), item: i}
	}
	return ops
}

// merge interleaves two schedules by due time.
func merge(a, b []op) []op {
	out := append(append(make([]op, 0, len(a)+len(b)), a...), b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out
}

// countingTransport counts response body bytes read through it.
type countingTransport struct {
	rt http.RoundTripper
	n  *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
