package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/featstore"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

// serve-traced: cost-only open-loop Poisson serving on the products
// stand-in at 4 GPUs with dynamic batching, at a fixed offered rate below
// the serve-load knee. Popularity drifts and the lfu-decay adaptive cache
// runs at cache-sweep's tight budget. The program's tracer and telemetry hub
// are attached in every run and both documents are serialised after it.
// One sample is one serving run from a fresh server; the first is warm-up.
const (
	serveShrink   = 4
	serveGPUs     = 4
	serveRate     = 4000 // requests per virtual second
	serveDuration = 1.0  // virtual seconds of arrivals
	serveSLO      = 10e-3
)

func serveConfig(td *train.Data, seed uint64, par int, tr *trace.Tracer, hub *telemetry.Hub) serve.Config {
	return serve.Config{
		Data: td,
		// The server's defaults, spelled out so the layer replays use them.
		Model:    nn.Config{Arch: nn.SAGE, InDim: td.FeatDim, Hidden: 64, Classes: td.NumClasses, Layers: 2},
		Sample:   sample.Config{Fanout: []int{10, 5}},
		MaxBatch: 32,
		Seed:     seed,
		Parallel: par,
		Duration: serveDuration,
		Rate:     serveRate,
		Skew:     1.2,
		Batching: serve.BatchDynamic,
		UseCCC:   true,
		// ~5% of each GPU's owned rows, as in cache-sweep.
		FeatureCacheBudget: int64(td.G.NumNodes()/serveGPUs/20) * int64(td.RowBytes()),
		DynamicCache:       cache.LFUDecay,
		RebalanceEvery:     5e-3,
		DriftEvery:         0.1,
		CacheTune:          cache.Config{Decay: 0.9},
		SLO:                serveSLO,
		Tracer:             tr,
		Telemetry:          hub,
	}
}

// serveRun is the outcome of one serving run.
type serveRun struct {
	rep        *serve.Report
	doc        *telemetry.Doc
	tr         *trace.Tracer
	store      *featstore.Store
	latencies  []float64 // per completed request, virtual seconds, sorted
	digest     uint64
	traceBytes int64
	host       float64 // host seconds for build, run and serialisation
}

// serveOnce builds a server, runs it and serialises its trace and telemetry
// documents; host is the time all of that took.
func (b *bench) serveOnce(td *train.Data, par int) (*serveRun, error) {
	out := &serveRun{tr: trace.New()}
	hub := telemetry.New(telemetry.Config{SLO: serveSLO})
	var docBytes []byte
	var cw countingWriter
	t, err := b.rec.time("serve sample", func() error {
		var srv *serve.Server
		if _, err := b.rec.time("serve.NewServer", func() (err error) {
			srv, err = serve.NewServer(serveConfig(td, b.seed, par, out.tr, hub))
			return err
		}); err != nil {
			return err
		}
		out.store = srv.Store()
		if _, err := b.rec.time("Server.Run", func() (err error) {
			out.rep, err = srv.Run()
			return err
		}); err != nil {
			return err
		}
		b.rec.time("Hub.Finish", func() error {
			out.doc = hub.Finish(out.rep.Makespan)
			return nil
		})
		if _, err := b.rec.time("Doc.EncodeJSON", func() (err error) {
			docBytes, err = out.doc.EncodeJSON()
			return err
		}); err != nil {
			return err
		}
		_, err := b.rec.time("Tracer.WriteJSON", func() error { return out.tr.WriteJSON(&cw) })
		return err
	})
	if err != nil {
		return nil, err
	}
	out.host, out.traceBytes = t, cw.n
	r := out.rep
	lat := make([]float64, len(r.Requests))
	for i, q := range r.Requests {
		lat[i] = float64(q.Latency())
	}
	h := fnv.New64a()
	h.Write(docBytes)
	out.digest, err = digest([]any{
		r.Makespan, r.Arrived, r.Completed, r.Shed, r.Lost, r.Rounds, r.MeanBatch,
		r.LocalRows, r.RemoteRows, r.HostRows, r.PromotedRows, r.RebalanceBytes,
		r.SampleWire, r.FeatureWire, lat, h.Sum64(), out.tr.Len(), cw.n,
	})
	sort.Float64s(lat)
	out.latencies = lat
	return out, err
}

func runServe(b *bench) error {
	b.rec.on = b.traced
	td, err := b.setUp("products", serveShrink, serveGPUs, func(td *train.Data) error {
		_, err := serve.NewServer(serveConfig(td, b.seed, b.par, trace.New(), telemetry.New(telemetry.Config{SLO: serveSLO})))
		return err
	})
	if err != nil {
		return err
	}
	b.rec.on = false
	if _, err := b.serveOnce(td, b.par); err != nil { // warm-up
		return err
	}
	// Only the first measured run is kept whole; every other run is checked
	// as it finishes and then dropped.
	var ref *serveRun
	var runs int
	var c serveChecks
	var repErr error
	err = b.measureHalves(func(budget float64) ([]float64, heapStats, error) {
		var rates []float64
		heap, err := loop(budget, 2, func(int) (any, error) {
			r, err := b.serveOnce(td, b.par)
			if err != nil {
				return nil, err
			}
			b.res.attempted += r.rep.Arrived
			b.res.failed += r.rep.Shed + r.rep.Lost
			if ref == nil {
				ref = r
			}
			if r.digest != ref.digest {
				repErr = fmt.Errorf("run %d differs from run 0", runs)
			}
			c.add(runs, r)
			runs++
			rates = append(rates, float64(r.rep.Completed)/r.host)
			return r, nil
		})
		return rates, heap, err
	})
	if err != nil {
		return err
	}
	par1, err := b.serveOnce(td, 1)
	if err != nil {
		return err
	}
	c.add(runs, par1)
	var parErr error
	if par1.digest != ref.digest {
		parErr = fmt.Errorf("run at -parallel 1 differs")
	}
	b.res.check("-parallel 1 bit-identical", parErr)
	b.res.check("repeated runs bit-identical", repErr)
	b.res.check("requests conserved", c.conserve)
	b.res.check("telemetry document validates", c.doc)
	b.res.check("no alert on the healthy run", c.alert)
	b.res.check("trace drops nothing", c.drop)
	rr := ref.rep.RunReport(serve.ReportMeta{Dataset: td.Name, GPUs: serveGPUs, Seed: b.seed, Shrink: serveShrink, Tracer: ref.tr})
	err = rr.Validate()
	if err == nil && rr.Profile == nil {
		err = fmt.Errorf("traced run report has no profile")
	}
	if err == nil {
		err = rr.Profile.Validate()
	}
	b.res.check("run report validates", err)

	rep := ref.rep
	// Exact order statistics of the per-request latencies: the report's
	// histogram quantiles are bucket midpoints, too coarse to compare seeds.
	p50, p99 := 1e3*percentile(ref.latencies, 0.5), 1e3*percentile(ref.latencies, 0.99)
	b.e2e("sim_ms", p99, rep.Completed)
	b.e2e("completed_frac", float64(b.res.attempted-b.res.failed)/float64(b.res.attempted), b.res.attempted)
	b.layer("sim_p50_ms", p50, rep.Completed)
	b.layer("sim_p99_ms", p99, rep.Completed)
	b.layer("wire.sample_bytes", float64(rep.SampleWire), 1)
	b.layer("wire.feature_bytes", float64(rep.FeatureWire), 1)
	b.layer("cache.local_rows", float64(rep.LocalRows), 1)
	b.layer("cache.peer_rows", float64(rep.RemoteRows), 1)
	b.layer("cache.host_rows", float64(rep.HostRows), 1)
	b.layer("cache.hit_rate", rep.CacheHitRate(), 1)
	b.layer("cache.promoted_rows", float64(rep.PromotedRows), 1)
	b.layer("cache.rebalance_bytes", float64(rep.RebalanceBytes), 1)
	b.layer("serve.rounds", float64(rep.Rounds), 1)
	b.layer("serve.mean_batch", rep.MeanBatch, 1)
	b.layer("trace.events", float64(ref.tr.Len()), 1)
	b.layer("trace.json_mb", float64(ref.traceBytes)/1e6, 1)
	samples := 0
	for _, s := range ref.doc.Series {
		samples += len(s.Values)
	}
	b.layer("telemetry.samples", float64(samples), 1)
	b.layer("telemetry.alerts", float64(len(ref.doc.Alerts)), 1)
	b.layerSpan("serve.run_s", "Server.Run")
	b.layerSpan("trace.write_s", "Tracer.WriteJSON")
	b.layerSpan("telemetry.finish_s", "Hub.Finish")
	b.logf("serve-traced: %d runs, arrived %d completed %d shed %d lost %d, p50 %.4g ms p99 %.4g ms, %d trace events (%.1f MB)",
		runs, rep.Arrived, rep.Completed, rep.Shed, rep.Lost, p50, p99, ref.tr.Len(), float64(ref.traceBytes)/1e6)
	if b.traced {
		cfg := serveConfig(td, b.seed, b.par, nil, nil)
		return b.replayAll(replayInput{
			td: td, sample: cfg.Sample, batch: cfg.MaxBatch, model: cfg.Model, store: par1.store, seed: b.seed,
			requests: serve.NewWorkload(td, cfg.Skew),
		})
	}
	return nil
}

// serveChecks holds the last failure of each per-run serving check.
type serveChecks struct {
	conserve, doc, alert, drop error
}

// add checks run i.
func (c *serveChecks) add(i int, r *serveRun) {
	rep := r.rep
	if rep.Arrived != rep.Completed+rep.Shed+rep.Lost {
		c.conserve = fmt.Errorf("run %d: arrived %d != completed %d + shed %d + lost %d",
			i, rep.Arrived, rep.Completed, rep.Shed, rep.Lost)
	}
	if err := r.doc.Validate(); err != nil {
		c.doc = fmt.Errorf("run %d: %w", i, err)
	}
	if n := len(r.doc.Alerts); n > 0 {
		c.alert = fmt.Errorf("run %d: %d burn-rate alert(s) fired", i, n)
	}
	if d := r.tr.Dropped(); d > 0 {
		c.drop = fmt.Errorf("run %d: %d trace events dropped", i, d)
	}
}

// percentile returns the q-quantile of sorted xs: the value at rank
// ceil(q*len(xs)).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
