package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"testing"
)

// The reports that read an M2M signaling plane — the platform plane's
// t1, fig2, fig3l/c/r, ext-latency and abl-policy, and the federated
// plane's fed-m2m — pinned by the SHA-256 of Report.String() at seeds
// 1–3 × scale 0.05. The constants were taken at commit b9f2c83, when
// every one of these runners still read a materialized, globally
// time-sorted []signaling.Transaction; the session now folds each plane
// per device and must land on the same bytes.
func TestM2MReportDigests(t *testing.T) {
	want := map[uint64]map[string]string{
		1: {
			"t1":          "f89491747eb05348e9b01f7e279ff9c7edd52e9903a2a25b785c9fefd9053ad0",
			"fig2":        "85682f4be4d04020b23dcac1f0886957204a5de71b816f5c2e2b485019c76e2f",
			"fig3l":       "3d2be3b6a8b0120a49f5227e76072d607110162e43b43cbc95d074bee1c87094",
			"fig3c":       "d2d269e7017c3fcc912335fed116c35b2fefc368945b29c889938acf57a1251d",
			"fig3r":       "b2bc0beb8f604c5e1974b738ad880db0fb4eccdd53a64a317ec999e43ed7d1d3",
			"ext-latency": "32528bc1f87db47683a2647a599f86d82bc5d59b23d5f5dae8e1fe312f8e8b93",
			"abl-policy":  "74704289ab15aa1aa48c35868906f8cb58dcfc6918b88ea4c1620a81a16ec3ef",
			"fed-m2m":     "287abfb002b51bb8721de78cb5f8616baf7daee75a299a677696409959fb6e0a",
		},
		2: {
			"t1":          "ecda42f1eb270ca84e45485e24c4d11078f1ea393a40f65a0876bcdee940aa18",
			"fig2":        "bb71f44f59693246358cbbadc4eb9abc198afd9f47f3b2cdb836adeed867062f",
			"fig3l":       "37d92b3fcbbf5c9849c03eeb13652c1f8419925ac20d4c5ee446e942f98d986c",
			"fig3c":       "1557b5b270e66b3067bb1a3dd842eb4328bd7ffe63360db541ce074166ee46be",
			"fig3r":       "536847bab22ebc10924c2fd71a1c77f366524243c0163579a62a37144cb65453",
			"ext-latency": "a83b4b82d3499bd9aa1c903ecf2761b24e59dcbef9ee70453cbfcb7a4c9bd60f",
			"abl-policy":  "44b0229c5b175c800f8a1079a5fa64ee3b943a545c34626590840a5717593114",
			"fed-m2m":     "e7a7974ff7c3fb3ec94f6ad4f3bab570aba263cd88e90cf611b74ca455a1465f",
		},
		3: {
			"t1":          "566b31c80b8d776022850db419486c8ccf83b6de1961c083ea1f0ac2c91a0503",
			"fig2":        "c04924e51f444e6df255be4e53896502e7dd03aa07ff86320e76fe8bdc9d6692",
			"fig3l":       "123f871aef7176286b064ae9b23603980325d07bd37296b12ac0f21e25c50a3c",
			"fig3c":       "35d271ec697e87310f217a61fdebf41e28b0f831f8c5932dc44f32f97f7bfd88",
			"fig3r":       "557e250d4d6eee2c221e6404742e85cdb537c66009dc9718c3e2aa05a442f1d7",
			"ext-latency": "154a87d4addb8ac0886917b1e2b31b12ba1395693d1ac4cf488366eb972913fa",
			"abl-policy":  "db657295bc6bca03cf9c932f625c82fbec5135f160ff4e14cc3608d5c5803b8f",
			"fed-m2m":     "62185b1cce56887fabb3a678284e12bc5a6d50d6290f87144b7861e426f29983",
		},
	}
	checkDigests(t, want)
}

// checkDigests runs each pinned runner at seeds 1–3 × scale 0.05 and
// compares the SHA-256 of its Report.String() with the pinned digest.
func checkDigests(t *testing.T, want map[uint64]map[string]string) {
	t.Helper()
	for seed := uint64(1); seed <= 3; seed++ {
		s := NewSessionWorkers(seed, 0.05, 0)
		for _, id := range slices.Sorted(maps.Keys(want[seed])) {
			r, ok := ByID(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			sum := sha256.Sum256([]byte(r.Run(s).String()))
			if got := hex.EncodeToString(sum[:]); got != want[seed][id] {
				t.Errorf("seed %d %s: report digest %s, pinned %s", seed, id, got, want[seed][id])
			}
		}
	}
}
