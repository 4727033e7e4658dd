package report_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zng/internal/config"
	"zng/internal/platform"
	"zng/internal/report"
	"zng/internal/workload"
)

// goldenScale keeps every cell tiny (tens of milliseconds) while still
// reaching the flash programs, page faults and register evictions whose
// long latencies exercise the engine's far-future events.
const goldenScale = 0.1

// goldenDigests pins the SHA-256 of EncodeResult for every platform on
// two registered mixes under the default configuration. Any change to
// event order, timing or accounting anywhere in the simulator changes
// some digest, so this fails under plain `go test ./...` instead of
// only in the docs-freshness check. A change that is meant to alter
// results updates these digests in the same commit and says why.
var goldenDigests = map[string]map[string]string{
	"bfs1-gaus": {
		"GDDR5":     "b660010520475f1f5c37d6a1d340a3f728c3d84a226bf62025491adeb7abbd2d",
		"Hetero":    "78245673e3cddfe09691d5a6898ade3ee1aa62eec5857960b6bf1af770311ca0",
		"HybridGPU": "a60ca9c882dd189e3a77a93b66f9e817ffefb0f4289d4dfb239eafb999ec5464",
		"Optane":    "ff5111bb6a5be69ce9a0214a8376e470daf38e912086dd33f0286b0c5665e0de",
		"ZnG-base":  "30df29b74daed95897b18fb04691d5058f83c95ff5183e58046a53ec02568647",
		"ZnG-rdopt": "9d340f976263345907b6180f35993d82d9d896bb4a5f40754089cad2792f0143",
		"ZnG-wropt": "a71064a71f665bab2dcc028ef54b2e72aaa8a8e936d24a96b098276d2197ad27",
		"ZnG":       "30497430a31d2920204f236c4f7fb6d7a53391fe0abb5a04fc3725751538b38b",
	},
	"write-stress": {
		"GDDR5":     "eae5db315e9b06e10bc9e14bb78a1e5683a9d507b9750dab231365f72b279b9d",
		"Hetero":    "5602468301e5369f54e8288bb6b697f35e0b10604c977e24d0b5240a13ca03cb",
		"HybridGPU": "6bac2209376bef57de4bf40b81c4604fa5307ff73bbe63f071f6288e9a452757",
		"Optane":    "526f7ab95b625612c3afc6972c2afe4d67fe570441991ef9636574ae8bcebc61",
		"ZnG-base":  "0ca0ad49edfec3e4998ed6106fcf17ca11755ff239ed552a3590ba42f2223219",
		"ZnG-rdopt": "0d376ddde283f43ca25f67b94d3c6d048be4d1ac4b36a2989dfd385e2cf89f45",
		"ZnG-wropt": "2bfaba21ff9c6abd7062f058fb918b53c5157cfb16713661a54c7d636d0b391e",
		"ZnG":       "0f4f45565a136618bfbd22aaad6089e9a341f3d863b73a6aedbefa03b2afeffa",
	},
}

func TestResultDigestsGolden(t *testing.T) {
	cfg := config.Default()
	for mixName, want := range goldenDigests {
		mix, err := workload.MixByName(mixName)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range platform.AllKinds() {
			k := k
			t.Run(mixName+"/"+k.String(), func(t *testing.T) {
				t.Parallel()
				r, err := platform.RunMix(k, mix, goldenScale, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(report.EncodeResult(r))
				if got := hex.EncodeToString(sum[:]); got != want[k.String()] {
					t.Errorf("digest = %s, want %s", got, want[k.String()])
				}
			})
		}
	}
}
