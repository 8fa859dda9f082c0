package byzantine_test

import (
	"testing"

	"faust/internal/sim"
)

func TestCrashServerBlocksOperations(t *testing.T) {
	// A server that crashes after one SUBMIT completes at most that
	// operation; the rest block, as the model dictates: no wait-freedom
	// under a faulty server (FAUST handles detection via the offline
	// channel). The simulator settles only once no event is enabled, so
	// a pending operation here is blocked for good.
	const served = 1
	for seed := int64(1); seed <= 6; seed++ {
		r := sim.Run(sim.Config{N: 2, Ops: 3, Seed: seed,
			Faults: []sim.Fault{{Kind: sim.CrashServer, At: served}}})
		done := len(r.History.Complete().Ops)
		if done > served {
			t.Fatalf("seed %d: %d operations returned on a server that crashed after %d SUBMIT", seed, done, served)
		}
		if done == len(r.History.Ops) {
			t.Fatalf("seed %d: no operation blocked on the crashed server", seed)
		}
		for i, err := range r.Fails {
			if err != nil {
				t.Fatalf("seed %d: client %d failed on a silent server: %v", seed, i, err)
			}
		}
	}
}
