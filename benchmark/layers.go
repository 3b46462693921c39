package main

// Every call into an internal package of the engine lives in this file, so a
// change to one of these signatures touches the benchmark in exactly one
// place (and, by the rule in README.md, is preceded by its own benchmark
// issue). The rest of the benchmark speaks only the public beas API.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	beas "repro"
	"repro/internal/chase"
	"repro/internal/persist"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/workload"
)

// dataset is a generated database with its join graph and ladder specs.
type dataset = workload.Dataset

// genTPCH generates the TPC-H-like dataset (|D| ≈ 2600·sf) for the seed.
func genTPCH(sf int, seed int64) *dataset { return workload.TPCH(sf, seed) }

// tpchShell returns the dataset's relations without tuples, for a warm
// start that restores the contents from a snapshot.
func tpchShell(sf int) *beas.Database { return workload.TPCHSchema(sf).DB }

// buildSchema builds At plus the dataset's declared ladders.
func buildSchema(d *dataset) (*beas.AccessSchema, error) { return d.AccessSchema() }

// paperMix generates n queries of the paper's mix: 30% aggregate SPC, 40% RA
// with 0–3 set differences, 30% SPC.
func paperMix(d *dataset, n int, seed int64) ([]beas.Query, error) { return d.Workload(n, seed) }

// spcQuery generates one SPC query with the given #-sel and #-prod.
func spcQuery(d *dataset, nSel, nProd int, seed int64) (beas.Query, error) {
	return d.Generate(workload.Spec{Class: workload.GenSPC, NSel: nSel, NProd: nProd}, seed)
}

// indexTuples is the number of samples the access schema keeps resident.
func indexTuples(sys *beas.System) int { return sys.Scheme().Access().IndexSize() }

// server is a serve.Server behind a loopback listener, the way beasd runs it.
type server struct {
	url  string
	srv  *serve.Server
	http *http.Server
	done chan error
}

// startServer serves sys on 127.0.0.1 with the default serving configuration.
func startServer(sys *beas.System, d *dataset) (*server, error) {
	srv, err := serve.New(serve.Config{
		System:    sys,
		Dataset:   d.Name,
		DBSize:    d.DB.Size(),
		Relations: len(d.DB.Names()),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		url:  "http://" + ln.Addr().String(),
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// close drains the HTTP server, waits for its goroutine and stops the batch
// workers.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// chaseLeaves re-runs the chase of every SPC leaf of the plan with the budget
// share plan generation gives it.
func chaseLeaves(sys *beas.System, p *beas.Plan) error {
	sc := sys.Scheme()
	share := p.Budget / len(p.Leaves)
	for _, l := range p.Leaves {
		if _, err := chase.Chase(l.SPC, sc.Access(), sc.DB(), share); err != nil {
			return err
		}
	}
	return nil
}

// executeLeaves runs every leaf of the plan through the plan executor with
// its defaults, one after the other, each leaf seeing the budget its
// predecessors left (the engine's sequential order).
func executeLeaves(ctx context.Context, sys *beas.System, p *beas.Plan) error {
	db := sys.Scheme().DB()
	remaining := p.Budget
	for _, l := range p.Leaves {
		r, err := plan.ExecuteOpts(ctx, l.Bounded, db, plan.DefaultExecOpts(remaining, runtime.GOMAXPROCS(0)))
		if err != nil {
			return err
		}
		remaining = max(remaining-r.Stats.Accessed, 0)
	}
	return nil
}

// fetchProbe times Ladder.FetchBatchBlocks at the exact level on a seeded
// sample of up to 1000 groups of the largest ladder that has that many
// groups. It returns the median time of one batch and the tuples one batch
// fetches.
func fetchProbe(sys *beas.System, seed int64, reps int) (batchUS, tuples float64) {
	ladders := sys.Scheme().Access().Ladders
	if len(ladders) == 0 {
		return 0, 0
	}
	big := ladders[0]
	for _, l := range ladders {
		if l.NumGroups() >= 1000 && (big.NumGroups() < 1000 || l.IndexSize() > big.IndexSize()) {
			big = l
		}
	}
	xs := big.GroupXs()
	sort.Slice(xs, func(i, j int) bool { return xs[i].Key() < xs[j].Key() })
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	xs = xs[:min(len(xs), 1000)]
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		blocks := big.FetchBatchBlocks(xs, big.MaxK(), 1)
		times = append(times, us(time.Since(t0)))
		tuples = 0
		for _, b := range blocks {
			if b != nil {
				tuples += float64(b.Rows())
			}
		}
	}
	return median(times), tuples
}

// snapshotBytes is the size of the persisted snapshot in dir.
func snapshotBytes(dir string) int64 {
	st, err := os.Stat(filepath.Join(dir, persist.SnapshotFile))
	if err != nil {
		return 0
	}
	return st.Size()
}
