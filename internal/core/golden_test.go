package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/hw"
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
