package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/baselines"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/train"
)

// goldenMulti pins two-machine MultiDSP epochs: SHA-256 over every epoch's
// EpochStats (float bits), the inter-machine wire bytes and, under real
// compute, rank 0's parameters after each epoch. The codec case sends the
// NIC cold rows and the gradient ring through lossy codecs.
var goldenMulti = map[string]string{
	"cost-only": "97dda8f790bf1d2ab6c5d4af9e8c18597ae8c8d018ae94b74c6bf7d64a68e281",
	"real":      "ab48967385ea2fc1dfc61aab555fb4e75f6013f875bf5632175aaacc6b5694bd",
	"real-int8": "851ede0d9ecee49aaa5ffb597878d3fa0b59d860266e31741eed4aeef8fde80c",
}

func TestGoldenMultiDSP(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes recorded on amd64; fused multiply-add elsewhere rounds differently")
	}
	td := testData(t, 2)
	for name, mutate := range map[string]func(*train.Options){
		"cost-only": func(*train.Options) {},
		"real":      func(o *train.Options) { o.RealCompute = true },
		"real-int8": func(o *train.Options) {
			o.RealCompute = true
			o.GradCodec = compress.NewInt8(5)
			o.FeatCodec = compress.FP16{}
		},
	} {
		o := smallOpts(td)
		mutate(&o)
		sys, err := core.NewMulti(o, 2, hw.InfiniBandEDR())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for e := 0; e < 2; e++ {
			st, err := sys.RunEpoch(e)
			if err != nil {
				t.Fatal(err)
			}
			if st.InterWire == 0 {
				t.Fatalf("%s epoch %d: no inter-machine traffic", name, e)
			}
			hashEpochStats(h, st)
			if m := sys.Model(); m != nil {
				params := make([]float32, m.ParamCount())
				m.ParamVector(params)
				for _, x := range params {
					binary.Write(h, binary.LittleEndian, math.Float32bits(x))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenMulti[name] {
			t.Errorf("%s: multi-machine epochs moved: hash %s, want %s", name, got, goldenMulti[name])
		}
	}
}

func hashEpochStats(h hash.Hash, st train.EpochStats) {
	binary.Write(h, binary.LittleEndian, []int64{
		int64(st.Epoch), int64(math.Float64bits(float64(st.EpochTime))),
		int64(math.Float64bits(st.Loss)), int64(st.Correct), int64(st.Seen),
		st.SampleWire, st.FeatureWire, st.GradWire, st.InterWire,
	})
	for _, u := range st.Utilization {
		binary.Write(h, binary.LittleEndian, math.Float64bits(u))
	}
}

// goldenEpochs pins single-machine epochs end to end: SHA-256 over every
// EpochStats field (stage sums and distributions, cache and out-of-core
// deltas included) and, under real compute, rank 0's parameters after each
// epoch. It covers the DSP pipeline and DSP-Seq, the adaptive cache's
// epoch-boundary rebalance, a checkpoint-style split epoch, the
// sampler-only epochs and the baseline systems.
var goldenEpochs = map[string]string{
	"dsp":            "8fa8eb5cdda661e65f883672f8ca8a5e0e8f53b37fe412d4fd8fba47a7735995",
	"dsp-1s1l":       "8fa8eb5cdda661e65f883672f8ca8a5e0e8f53b37fe412d4fd8fba47a7735995",
	"dsp-seq":        "ccd01df4124dee88e900d6cb84ad9e2d4dca3b9d45d94fb73d96a200eee66970",
	"real":           "90b0d977331683b2be040a51f61cc843b342d0cc0f0a0ade10aa311a0b1be1a4",
	"lfu-decay":      "b45b7fdcab0e27ea4441a21e09ee788a6ad9842f0b6df86faec78d49f7df3b59",
	"ooc":            "6eda285c32907939885cec8c19d8f6fb21003e010d318f02d4a9c19a8fb33af9",
	"split-range":    "8faf58a3f1c61460953637a8d1e7c6784cb449e08c9e8bb0c914fcf060c0340b",
	"sample-dsp":     "4cc28cb885954b717bc5da3521dd056541f3dd5e8e7cbd294f78a9b129ece713",
	"sample-fastgcn": "bf3708d5d89a8d701fa268bb03e5a89cc41684a5060ae8bf8313fad01ded6585",
	"pyg":            "976a60b66e08a54ce538e56dada7756bb069a2d5d965eec2100338b78de3e3a4",
	"dgl-cpu":        "5c9b6458483d725d5fb81afc788f6972608a46e2295fd520f23fad905ea7a0fe",
	"dgl-uva":        "01639cd9d5a1201fadefdfac25db4644bcc4a4e7a1b8844fdb224be72ea34fa7",
	"quiver":         "fd1ca3e0244186431be29eb1ce9836c46234bf205c7fe4f114096299600dfd2b",
}

func TestGoldenEpochs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes recorded on amd64; fused multiply-add elsewhere rounds differently")
	}
	td := testData(t, 2)
	dsp := func(mutate func(*train.Options)) func() (train.System, error) {
		return func() (train.System, error) {
			o := smallOpts(td)
			mutate(&o)
			return core.New(o)
		}
	}
	baseline := func(kind baselines.Kind) func() (train.System, error) {
		return func() (train.System, error) { return baselines.New(kind, smallOpts(td)) }
	}
	full := func(sys train.System, e int) ([]train.EpochStats, error) {
		st, err := sys.RunEpoch(e)
		return []train.EpochStats{st}, err
	}
	sampleOnly := func(sys train.System, e int) ([]train.EpochStats, error) {
		st, err := sys.RunSampleEpoch(e)
		return []train.EpochStats{st}, err
	}
	split := func(sys train.System, e int) ([]train.EpochStats, error) {
		d := sys.(*core.DSP)
		k := d.Steps() / 2
		a, err := d.RunEpochRange(e, 0, k)
		if err != nil {
			return nil, err
		}
		b, err := d.RunEpochRange(e, k, d.Steps())
		return []train.EpochStats{a, b}, err
	}
	for _, c := range []struct {
		name  string
		build func() (train.System, error)
		run   func(train.System, int) ([]train.EpochStats, error)
	}{
		{"dsp", dsp(func(*train.Options) {}), full},
		{"dsp-1s1l", dsp(func(o *train.Options) { o.NumSamplers, o.NumLoaders = 1, 1 }), full},
		{"dsp-seq", dsp(func(o *train.Options) { o.Pipeline = false }), full},
		{"real", dsp(func(o *train.Options) { o.RealCompute = true }), full},
		{"lfu-decay", dsp(func(o *train.Options) { *o = dynamicOpts(td) }), full},
		{"ooc", dsp(func(o *train.Options) { o.OOC, o.CompressTopology = true, true }), full},
		{"split-range", dsp(func(o *train.Options) { o.RealCompute = true }), split},
		{"sample-dsp", dsp(func(*train.Options) {}), sampleOnly},
		{"sample-fastgcn", baseline(baselines.FastGCN), sampleOnly},
		{"pyg", baseline(baselines.PyG), full},
		{"dgl-cpu", baseline(baselines.DGLCPU), full},
		{"dgl-uva", baseline(baselines.DGLUVA), full},
		{"quiver", baseline(baselines.Quiver), full},
	} {
		sys, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		for e := 0; e < 2; e++ {
			sts, err := c.run(sys, e)
			if err != nil {
				t.Fatalf("%s epoch %d: %v", c.name, e, err)
			}
			for _, st := range sts {
				hashAllEpochStats(h, st)
			}
			if m := sys.Model(); m != nil {
				params := make([]float32, m.ParamCount())
				m.ParamVector(params)
				for _, x := range params {
					binary.Write(h, binary.LittleEndian, math.Float32bits(x))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenEpochs[c.name] {
			t.Errorf("%s: epochs moved: hash %s, want %s", c.name, got, goldenEpochs[c.name])
		}
	}
}

// hashAllEpochStats extends hashEpochStats to every EpochStats field.
func hashAllEpochStats(h hash.Hash, st train.EpochStats) {
	hashEpochStats(h, st)
	bits := func(x sim.Time) int64 { return int64(math.Float64bits(float64(x))) }
	binary.Write(h, binary.LittleEndian, []int64{
		bits(st.SampleTime),
		st.CacheLocal, st.CachePeer, st.CacheHost,
		st.CachePromoted, st.RebalanceBytes, bits(st.RebalanceTime),
		st.StoreHits, st.StoreMisses, st.StoreDemandBytes,
		st.StorePrefetchIssued, st.StorePrefetchUsed, bits(st.StoreStall),
		bits(st.SampleStage), bits(st.LoadStage), bits(st.TrainStage),
	})
	for _, d := range []*metrics.Histogram{st.SampleDist, st.LoadDist, st.TrainDist} {
		if d == nil {
			binary.Write(h, binary.LittleEndian, int64(-1))
			continue
		}
		binary.Write(h, binary.LittleEndian, d.Count())
		for _, x := range []float64{d.Sum(), d.Min(), d.Max(), d.P50(), d.P99()} {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
}
