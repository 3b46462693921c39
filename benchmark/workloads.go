package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"

	beas "repro"
)

// scale sizes one run: dataset scale factors (|D| ≈ 2600·sf), request pools
// and how often the slow parts repeat.
//
// The pools are large because BENCHMARK.json's bounds must hold between runs
// on different seeds. A query's cost varies by two orders of magnitude with
// its shape and constants, so the median over 64 generated queries moves by a
// quarter from one seed to the next, the median over 2048 by 5% and their mean
// cost (throughput, CPU per query) by 9%, over 4096 by 0.7 of that; and nine
// answers in ten are certified η=0 or η=1, so eta_mean is a share
// whose spread shrinks only with the square root of the pool (8192 queries
// where η is lowest, on lib_cold_plan). A pool larger than the 256-entry plan
// cache cannot be served from it, so each workload says how it meets the cache
// (see README.md).
type scale struct {
	sfServe, sfCold, sfSmall, sfLarge, sfRW int

	poolServe int // queries serve_mixed slides its hot window over
	poolCold  int // distinct queries of lib_cold_plan
	poolLib   int // prepared queries of lib_small_d / lib_large_d
	poolRW    int // queries of lib_read_write

	setups    int // times set-up is repeated; setup_s is their median
	tracedOps int // operations of the traced pass
	oracle    int // answers per workload checked against exact evaluation
	fetchReps int // repetitions of the access fetch probe
}

var (
	fullScale  = scale{20, 20, 8, 64, 8, 4096, 8192, 4096, 4096, 3, 2000, 6, 21}
	smokeScale = scale{2, 2, 1, 4, 1, 96, 300, 48, 32, 1, 30, 2, 3}
)

// The request shapes of the workloads.
const (
	coldAlpha  = 0.002 // the paper's regime: a budget of ~100 tuples at sf=20
	libBudget  = 4000  // the same absolute budget on lib_small_d and lib_large_d
	rwAlpha    = 0.05
	rwBatch    = 25   // rows inserted, and rows deleted, by one Apply: 50 ops
	rwLag      = 8    // a row is deleted this many cycles after its insert
	rwQueries  = 200  // queries between two Apply batches: four per written op
	checkEvery = 2000 // WAL records between background checkpoints
	hotKeys    = 128  // plans serve_mixed keeps hot, over all clients: half the plan cache
	hotStep    = 10   // a client's hot window moves on every hotStep requests: one in ten is never-seen
)

// item is one request of a pool: a query with the options it runs under.
type item struct {
	q     beas.Query
	class string // "spc", "ra" or "agg"
	opts  []beas.Option
	sql   string     // serve_mixed: what the server parses
	body  []byte     // serve_mixed: the /query request body
	plan  *beas.Plan // prepared workloads: generated once by verification
}

// bound is a request's resource bound: an absolute tuple budget, or else α.
type bound struct {
	alpha  float64
	budget int
}

func (b bound) opts() []beas.Option {
	if b.budget > 0 {
		return []beas.Option{beas.WithBudget(b.budget)}
	}
	return []beas.Option{beas.WithAlpha(b.alpha)}
}

// op is one operation of a request sequence: a query, or an Apply batch.
type op struct {
	it    *item
	write []beas.Op
}

// sequence yields a client's operations, deterministically for its seed.
type sequence interface {
	next() op
	// passDone reports that the operations so far weigh every request of the
	// pool equally. A round of the timed phase ends only then, so the rounds
	// of a round-robin workload are whole passes over one pool and differ by
	// noise alone; a randomly drawing sequence is always done.
	passDone() bool
}

// workloadDef is one workload of the benchmark at one scale; README.md says
// why each exists.
type workloadDef struct {
	name      string
	sf        int  // TPCH scale factor
	poolSize  int  // requests generated (verification may drop a few)
	served    bool // driven over loopback HTTP through serve.Server
	persisted bool // opened with OpenPersisted and written to
	prepared  bool // plans generated once (System.Plan), operations are System.Execute
	clients   int
	// pool generates poolSize requests from the dataset alone.
	pool func(d *dataset, n int, seed int64) ([]*item, error)
	// sequence builds the request sequence of one client.
	sequence func(in *instance, seed int64, client int) sequence
}

// clientCount is min(nproc, 4): callers wait for their reply, so the loop is
// closed, and more generators than processors would measure the scheduler.
func clientCount() int { return min(runtime.NumCPU(), 4) }

func workloadDefs(sc scale) []*workloadDef {
	roundRobin := func(in *instance, _ int64, _ int) sequence { return &cycle{items: in.pool} }
	libPool := func(d *dataset, n int, seed int64) ([]*item, error) {
		return mixItems(d, n, seed+2, false, bound{budget: libBudget})
	}
	return []*workloadDef{
		{
			name: "serve_mixed", sf: sc.sfServe, poolSize: sc.poolServe, served: true, clients: clientCount(),
			pool: func(d *dataset, n int, seed int64) ([]*item, error) {
				return mixItems(d, n, seed, true, bound{alpha: 0.01}, bound{alpha: 0.05})
			},
			sequence: func(in *instance, seed int64, client int) sequence {
				var own []*item // the client's stride of the pool
				for i := client; i < len(in.pool); i += in.def.clients {
					own = append(own, in.pool[i])
				}
				return &slidingWindow{rng: rand.New(rand.NewSource(seed*131 + int64(client))),
					items: own, width: min(hotKeys/in.def.clients, len(own))}
			},
		},
		{
			name: "lib_cold_plan", sf: sc.sfCold, poolSize: sc.poolCold, clients: 1,
			pool: func(d *dataset, n int, seed int64) ([]*item, error) {
				pool := make([]*item, 0, n)
				for i := 0; i < n; i++ {
					q, err := spcQuery(d, 3+i%5, 2+i%3, seed*100003+int64(i))
					if err != nil {
						return nil, err
					}
					pool = append(pool, &item{q: q, class: "spc", opts: bound{alpha: coldAlpha}.opts()})
				}
				return pool, nil
			},
			sequence: roundRobin,
		},
		{name: "lib_small_d", sf: sc.sfSmall, poolSize: sc.poolLib, prepared: true, clients: 1, pool: libPool, sequence: roundRobin},
		{name: "lib_large_d", sf: sc.sfLarge, poolSize: sc.poolLib, prepared: true, clients: 1, pool: libPool, sequence: roundRobin},
		{
			name: "lib_read_write", sf: sc.sfRW, poolSize: sc.poolRW, persisted: true, clients: 1,
			pool: func(d *dataset, n int, seed int64) ([]*item, error) {
				return mixItems(d, n, seed+3, false, bound{alpha: rwAlpha})
			},
			sequence: func(in *instance, seed int64, _ int) sequence {
				return &readWrite{rng: rand.New(rand.NewSource(seed*257 + 5)), pool: in.pool,
					orders:   in.d.DB.MustRelation("orders").Len(),
					parts:    in.d.DB.MustRelation("part").Len(),
					supplies: in.d.DB.MustRelation("supplier").Len()}
			},
		},
	}
}

func findWorkload(sc scale, name string) *workloadDef {
	for _, w := range workloadDefs(sc) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// mixItems turns n queries of the paper's mix into requests, cycling through
// the given bounds. For the served workload the query is what the server will
// parse out of the rendered SQL.
func mixItems(d *dataset, n int, seed int64, served bool, bounds ...bound) ([]*item, error) {
	qs, err := paperMix(d, n, seed)
	if err != nil {
		return nil, err
	}
	items := make([]*item, 0, n)
	for i, q := range qs {
		b := bounds[i%len(bounds)]
		it := &item{q: q, opts: b.opts()}
		if served {
			it.sql = beas.RenderSQL(q)
			if it.q, err = beas.ParseSQL(it.sql); err != nil {
				return nil, fmt.Errorf("rendered SQL does not parse: %w: %s", err, it.sql)
			}
			if it.body, err = json.Marshal(map[string]any{"sql": it.sql, "alpha": b.alpha}); err != nil {
				return nil, err
			}
		}
		it.class = classOf(it.q)
		items = append(items, it)
	}
	return items, nil
}

func classOf(q beas.Query) string {
	switch q.(type) {
	case *beas.GroupBy:
		return "agg"
	case *beas.SPC:
		return "spc"
	default:
		return "ra"
	}
}

// cycle walks a pool round-robin: every query gets the same weight, and a
// pool larger than the plan cache never hits it.
type cycle struct {
	items []*item
	i     int
}

func (s *cycle) next() op {
	it := s.items[s.i%len(s.items)]
	s.i++
	return op{it: it}
}

func (s *cycle) passDone() bool { return s.i%len(s.items) == 0 }

// slidingWindow draws each request from a window of `width` consecutive
// queries of the client's pool and moves the window on by one query every
// hotStep requests. The window's plans stay in the plan cache, so nine
// requests in ten hit it, and the query entering the window has never been
// seen (or left the cache a pool-length ago): steady dashboard traffic whose
// popular queries drift, which lets one run average over the whole pool.
type slidingWindow struct {
	rng      *rand.Rand
	items    []*item
	width    int
	requests int // issued so far
}

func (s *slidingWindow) next() op {
	s.requests++
	start := s.requests / hotStep
	if s.requests%hotStep == 0 { // the window just moved: ask for the query that entered it
		return op{it: s.items[(start+s.width-1)%len(s.items)]}
	}
	return op{it: s.items[(start+s.rng.Intn(s.width))%len(s.items)]}
}

func (s *slidingWindow) passDone() bool { return true }

// readWrite repeats: one Apply inserting rwBatch lineitem rows and deleting
// the rows inserted rwLag cycles earlier (|D| steady), then rwQueries queries.
// One Apply takes ~180 ms, a query ~0.3 ms, and the queries' latencies spread
// over a factor of 30 with no peak at the median: at one query per written op
// a run holds ~2000 samples and its median moved by 12–28% from seed to seed.
// Four per op give ~9000 samples while writes still take most of the time.
type readWrite struct {
	rng                     *rand.Rand
	pool                    []*item
	orders, parts, supplies int
	pos, cycleNo            int
	ring                    [rwLag][]beas.Tuple
}

func (s *readWrite) next() op {
	if s.pos > 0 {
		s.pos = (s.pos + 1) % (rwQueries + 1)
		return op{it: s.pool[s.rng.Intn(len(s.pool))]}
	}
	s.pos = 1
	slot := s.cycleNo % rwLag
	s.cycleNo++
	rows := make([]beas.Tuple, rwBatch)
	ops := make([]beas.Op, 0, 2*rwBatch)
	for i := range rows {
		// The shape of a generated lineitem row; the random extprice makes it
		// unique, so presence after recovery can be checked per row.
		rows[i] = beas.Tuple{
			beas.Int(int64(s.rng.Intn(s.orders))), beas.Int(int64(s.rng.Intn(s.parts))),
			beas.Int(int64(s.rng.Intn(s.supplies))), beas.Int(int64(1 + s.rng.Intn(50))),
			beas.Float(100 + s.rng.Float64()*100000), beas.Float(s.rng.Float64() * 0.1),
			beas.Int(int64(s.rng.Intn(2556))),
		}
		ops = append(ops, beas.Op{Kind: beas.OpInsert, Rel: "lineitem", Tuple: rows[i]})
	}
	for _, t := range s.ring[slot] {
		ops = append(ops, beas.Op{Kind: beas.OpDelete, Rel: "lineitem", Tuple: t})
	}
	s.ring[slot] = rows
	return op{write: ops}
}

func (s *readWrite) passDone() bool { return true }
