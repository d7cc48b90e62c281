package sim

import (
	"runtime"
	"testing"
)

// TestGoldenFingerprints pins the encoded logs across commits: the
// sha256 of the MME CSV, proxy binary and UDR CSV (datasetHash) for two
// tiny seeds. A refactor that claims "same output" must leave these
// values unchanged; a deliberate change to the generator updates them
// in the same commit and says why.
func TestGoldenFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fingerprints recorded on amd64; other GOARCHes may fuse float multiply-adds (FMA) and round differently")
	}
	golden := map[uint64]string{
		1:  "1aa582004aa36957b7446dad9baaa47d24f1fc661d00529cb56ffaf693b69b07",
		42: "0f5237cad42440c6e026c4b41b763cf6039dff490ce4a69f3a94819d06417caa",
	}
	for _, seed := range []uint64{1, 42} {
		if got := datasetHash(t, generateTiny(t, seed)); got != golden[seed] {
			t.Errorf("seed %d: encoded dataset sha256 %s, want %s", seed, got, golden[seed])
		}
	}
}
