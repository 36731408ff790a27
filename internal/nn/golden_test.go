package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/sample"
)

// goldenTrainHash pins the exact fp32 numerics of real-compute training:
// SHA-256 over the loss, GradVector and parameters after each of three
// TrainStep + Adam.Step rounds, for every architecture. Same-binary
// determinism tests cannot see a kernel change that moves a rounding; this
// constant can. Widths are deliberately not multiples of four.
const goldenTrainHash = "00a71265bab76b2663ec2bfba256762fc059d8275d3d26928bf89b370d02ee6c"

func TestGoldenTrainNumerics(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hash recorded on amd64; fused multiply-add elsewhere rounds differently")
	}
	d := gen.Generate(gen.Config{
		Name: "golden", Nodes: 600, AvgDegree: 7, FeatDim: 10, NumClasses: 5, Seed: 21,
	})
	h := sha256.New()
	for _, arch := range []Arch{SAGE, GCN, GAT} {
		m := NewModel(Config{Arch: arch, InDim: d.FeatDim, Hidden: 13, Classes: 5, Layers: 3}, 17)
		opt := NewAdam(0.01)
		buf := make([]float32, m.ParamCount())
		for step := 0; step < 3; step++ {
			seeds := d.TrainIdx[step*29 : (step+1)*29]
			mb := sample.Reference(d.G, seeds, sample.Config{Fanout: []int{4, 3, 2}}, rng.Mix(5, uint64(step)))
			inputs := mb.InputNodes()
			feats := make([]float32, len(inputs)*d.FeatDim)
			for i, v := range inputs {
				copy(feats[i*d.FeatDim:], d.Feature(v))
			}
			labels := make([]int32, len(seeds))
			for i, s := range seeds {
				labels[i] = d.Labels[s]
			}
			m.ZeroGrads()
			loss, _, _ := m.TrainStep(mb, feats, labels)
			binary.Write(h, binary.LittleEndian, math.Float64bits(loss))
			m.GradVector(buf)
			hashFloats(h, buf)
			opt.Step(m)
			m.ParamVector(buf)
			hashFloats(h, buf)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenTrainHash {
		t.Fatalf("training numerics moved: hash %s, want %s", got, goldenTrainHash)
	}
}

func hashFloats(h hash.Hash, v []float32) {
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
}
