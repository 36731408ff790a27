package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// goldenFleet pins a complete 2-fleet routed run: SHA-256 over the canonical
// run report and the shared telemetry document.
const goldenFleet = "36218febc6f31b724e7edc58343fd4e99113ceecf70679a64f617ae1efcbe89e"

func TestGoldenFleetRun(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hash recorded on amd64; fused multiply-add elsewhere rounds differently")
	}
	cfg := testConfig(t, 2)
	hub := telemetry.New(telemetry.Config{SLO: cfg.Serve.SLO})
	cfg.Serve.Telemetry = hub
	rep := mustRun(t, cfg)
	checkAccounting(t, rep)
	doc := hub.Finish(rep.Makespan)
	rr, err := rep.RunReport(serve.ReportMeta{Dataset: "golden", GPUs: 4, Seed: cfg.Serve.Seed,
		Telemetry: doc.Section()}).EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	td, err := doc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(rr)
	h.Write(td)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFleet {
		t.Fatalf("fleet run moved: hash %s, want %s", got, goldenFleet)
	}
}
