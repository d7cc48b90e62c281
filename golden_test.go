package wearwild

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// goldenResultsSHA256 is the sha256 of json.Marshal(Results) for the
// SmallConfig(42) dataset studied at Workers=1, generated with the exact
// nearest-sector lookup (the sector NearestLinear returns for every move).
const goldenResultsSHA256 = "ae419c20650fbecdd53427122a6651610994bf413038f28ccd3d6a7bad9015f7"

// TestGoldenFingerprints pins the study's output across commits: the
// Results JSON of the shared equivalence dataset must hash to the
// committed value. Together with the encoded-log fingerprints in
// internal/gen/sim it turns "same output" into a tier-1 check for every
// refactor of the generator or the engine.
func TestGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a full small dataset")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprint recorded on amd64; other GOARCHes may fuse float multiply-adds (FMA) and round differently")
	}
	_, raw := runWith(t, eqDataset(t), 1, 0)
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != goldenResultsSHA256 {
		t.Errorf("Results JSON sha256 %s, want %s", got, goldenResultsSHA256)
	}
}
