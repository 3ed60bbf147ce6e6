// Drift golden for the whole simulator: the SHA-256 of the done-set
// campaign CSV. The differential goldens (interconnect_test.go,
// topology_test.go) compare two interconnect shapes that share one
// link implementation, so a change to that shared code moves both sides
// together and passes them. This test pins the bytes themselves, across
// every shape the done-set runs — the single bus, banks=4/8, xbar, mesh
// and ring — so any change to cycles, counters or rendering fails here.
package clockgate

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// doneSetCSVDigest is the SHA-256 of the CSV that
// `experiments -matrix done -scale 0.02 -csv` writes at the default seed
// 42 on linux/amd64.
const doneSetCSVDigest = "fb1a2b3d44da3a63faf767cfdadc741eaed0b425f82071fcf2088664d3c22a97"

// TestDoneSetCSVDigest runs the E2E done-set exactly as the experiments
// CLI's `-matrix done` does and requires the campaign CSV to hash to the
// pinned digest. The energy columns are float arithmetic over integer
// residency totals; on amd64 the compiler never fuses a multiply-add, so
// the bytes are a pure function of the simulation. Other architectures
// may fuse (arm64, ppc64le, s390x), which can move a last printed digit,
// so the test skips there rather than pin a second digest.
func TestDoneSetCSVDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest pinned on amd64; GOARCH=%s may fuse multiply-adds and round the energy columns differently", runtime.GOARCH)
	}
	opts := DefaultCampaignOptions()
	opts.Scale = e2eScale
	opts.Workers = runtime.GOMAXPROCS(0)
	session := NewSession(opts)
	defer session.Close()
	campaign, err := session.RunScenarios(context.Background(), experiments.DoneScenarios())
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := campaign.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(buf.String()))
	if got := hex.EncodeToString(sum[:]); got != doneSetCSVDigest {
		t.Fatalf("done-set CSV digest %s, want %s (%d rows): cycles, counters or CSV rendering drifted",
			got, doneSetCSVDigest, strings.Count(buf.String(), "\n")-1)
	}
}
