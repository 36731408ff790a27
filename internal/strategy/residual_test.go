package strategy

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/sample"
)

// TestP3ResidualFlopsPinned pins P3's residual kernel charges — the
// training step's (layer 0 aggregation only, deeper layers forward plus
// backward) and the serving forward's — for every architecture on fixed
// batches.
func TestP3ResidualFlopsPinned(t *testing.T) {
	d := gen.Generate(gen.Config{Name: "resid", Nodes: 800, AvgDegree: 9, FeatDim: 24, NumClasses: 5, Seed: 31})
	mb := sample.Reference(d.G, d.TrainIdx[:40], sample.Config{Fanout: []int{5, 4, 3}}, rng.Mix(9, 1))
	for _, tc := range []struct {
		arch         nn.Arch
		train, infer int64
	}{
		{nn.SAGE, 791856, 287248},
		{nn.GCN, 465816, 178568},
		{nn.GAT, 1438272, 591760},
	} {
		cfg := nn.Config{Arch: tc.arch, InDim: d.FeatDim, Hidden: 19, Classes: 5, Layers: 3}
		if got := residualFlops(cfg, mb, 3, 2); got != tc.train {
			t.Errorf("%v train residual = %d, want %d", tc.arch, got, tc.train)
		}
		if got := residualFlops(cfg, mb, 1, 1); got != tc.infer {
			t.Errorf("%v forward residual = %d, want %d", tc.arch, got, tc.infer)
		}
	}
}
