package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// goldenServe pins complete serving runs: SHA-256 over the canonical run
// report, the telemetry document, the Chrome trace JSON and every completed
// request's (ID, GPU, round, done time, prediction). Same-binary determinism
// tests cannot see a refactor that moves a virtual timestamp, a tier count
// or a prediction; these constants can.
var goldenServe = map[string]string{
	"lfu-drift": "fad1a733250d185281dc3809b997e749797b16e1423ab32b988eb9f8b2ebb457",
	"crash":     "7dfd378c5e8c64cc41a73647b2183f95413758f948c3287c5501711b49a0cc43",
	"p3":        "1365aac02ad5e73f0c00abbd5a6d13e7b3a06343b9e4a538885b432f6602b893",
	"real-dsp":  "f84b2b95e64488e7d65ab3f66800fd0430d1955a5ee630533246fe76e3d599e1",
	"real-p3":   "e1e5438b12052ffe1b31f62bd7ed3d401ec6e6e803885e828feb4f419914aac0",
}

func TestGoldenServeRuns(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes recorded on amd64; fused multiply-add elsewhere rounds differently")
	}
	// Each case also checks that it exercises the path it is named for, so
	// the pinned hash cannot silently cover a degenerate run.
	for name, tc := range map[string]struct {
		mutate func(*Config)
		check  func(*Report) bool
	}{
		"lfu-drift": {func(c *Config) {
			c.DynamicCache = cache.LFUDecay
			c.FeatureCacheBudget = int64(80 * c.Data.FeatDim * 4)
			c.RebalanceEvery = 5e-3
			c.DriftEvery = 15e-3
		}, func(r *Report) bool { return r.PromotedRows > 0 }},
		"crash": {func(c *Config) {
			c.Faults = []fault.Fault{{Kind: fault.Crash, GPU: 2, At: 0.02}}
		}, func(r *Report) bool { return len(r.DeadGPUs) == 1 && r.Rerouted > 0 }},
		"p3":       {func(c *Config) { c.Strategy = "p3" }, func(r *Report) bool { return r.PushWire > 0 }},
		"real-dsp": {func(c *Config) { c.RealCompute = true }, hasPreds},
		"real-p3":  {func(c *Config) { c.RealCompute = true; c.Strategy = "p3" }, hasPreds},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, 4)
			tc.mutate(&cfg)
			got, rep := goldenServeHash(t, cfg)
			if !tc.check(rep) {
				t.Fatalf("run does not exercise the %s path", name)
			}
			if got != goldenServe[name] {
				t.Fatalf("serving run moved: hash %s, want %s", got, goldenServe[name])
			}
		})
	}
}

func hasPreds(r *Report) bool {
	for _, req := range r.Requests {
		if req.Pred >= 0 {
			return true
		}
	}
	return false
}

func goldenServeHash(t *testing.T, cfg Config) (string, *Report) {
	t.Helper()
	cfg.Tracer = trace.New()
	cfg.Telemetry = telemetry.New(telemetry.Config{SLO: 5e-3})
	rep, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc := cfg.Telemetry.Finish(rep.Makespan)
	h := sha256.New()
	rr, err := rep.RunReport(ReportMeta{Dataset: "golden", GPUs: 4, Seed: cfg.Seed,
		Tracer: cfg.Tracer, Telemetry: doc.Section()}).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(rr)
	td, err := doc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(td)
	if err := cfg.Tracer.WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Requests {
		binary.Write(h, binary.LittleEndian, []int64{
			int64(r.ID), int64(r.GPU), int64(r.Round), int64(math.Float64bits(float64(r.Done))), int64(r.Pred),
		})
	}
	return hex.EncodeToString(h.Sum(nil)), rep
}
