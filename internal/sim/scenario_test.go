package sim

import (
	"fmt"
	"testing"

	"faust/internal/consistency"
	"faust/internal/history"
)

// The named scenarios below run one configuration over a few seeds and
// state one of the paper's claims directly; TestSweep's oracle checks
// all of them on every row.

const scenarioSeeds = 6

// eachSeed runs cfg on seeds 1..scenarioSeeds and fails t with the
// first error prop reports, naming the seed.
func eachSeed(t *testing.T, cfg Config, prop func(Result) error) []Result {
	t.Helper()
	var rs []Result
	for seed := int64(1); seed <= scenarioSeeds; seed++ {
		cfg.Seed = seed
		r := Run(cfg)
		if err := prop(r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rs = append(rs, r)
	}
	return rs
}

// covered checks that every live client's last stability cut covers its
// last completed operation for every live client.
func covered(r Result) error {
	if !r.Settled {
		return fmt.Errorf("not settled after %d steps (fails %v)", r.Steps, r.Fails)
	}
	for i, cuts := range r.Cuts {
		last := lastTS(r.History, i)
		if r.Crashed[i] || last == 0 {
			continue
		}
		if len(cuts) == 0 {
			return fmt.Errorf("client %d: no stable notification for timestamp %d", i, last)
		}
		for j, w := range cuts[len(cuts)-1] {
			if !r.Crashed[j] && w < last {
				return fmt.Errorf("client %d: final cut %v leaves timestamp %d unstable w.r.t. client %d", i, cuts[len(cuts)-1], last, j)
			}
		}
	}
	return nil
}

// lastTS is the timestamp of client i's last completed operation.
func lastTS(h history.History, i int) int64 {
	var ts int64
	for _, o := range h.ByClient(i) {
		if o.IsComplete() && o.Timestamp > ts {
			ts = o.Timestamp
		}
	}
	return ts
}

// TestCausalConsistencyUnderForkAttack: under a forking attack USTOR
// histories stay causal, each branch is linearizable, and on some seed
// the whole history is not (the attack had an effect).
func TestCausalConsistencyUnderForkAttack(t *testing.T) {
	cfg := Config{N: 4, Ops: 5, Faults: []Fault{{Kind: ForkServer, Client: 2}}}
	rs := eachSeed(t, cfg, func(r Result) error {
		if res := consistency.CheckCausal(r.History); !res.OK {
			return fmt.Errorf("fork attack broke causal consistency: %s", res.Reason)
		}
		return forkSafe(r, 2)
	})
	for _, r := range rs {
		if !consistency.CheckLinearizable(r.History).OK {
			return
		}
	}
	t.Fatal("every forked history linearizable: the attack had no effect")
}

// TestNoFalsePositivesCorrectServer: with a correct server no FAUST
// client ever outputs fail, and the history is linearizable.
func TestNoFalsePositivesCorrectServer(t *testing.T) {
	eachSeed(t, Config{N: 4, Ops: 4, Faust: true}, func(r Result) error {
		for i, err := range r.Fails {
			if err != nil {
				return fmt.Errorf("client %d false positive: %v", i, err)
			}
		}
		if !r.Settled {
			return fmt.Errorf("not settled after %d steps", r.Steps)
		}
		return linearizable(r.History)
	})
}

// TestStabilityCutSound: with a correct server every client's cuts are
// monotone, and its last operation becomes stable w.r.t. everyone.
func TestStabilityCutSound(t *testing.T) {
	eachSeed(t, Config{N: 3, Ops: 5, Faust: true}, func(r Result) error {
		for i, cuts := range r.Cuts {
			for k := 1; k < len(cuts); k++ {
				for j := range cuts[k] {
					if cuts[k][j] < cuts[k-1][j] {
						return fmt.Errorf("client %d: cut regressed from %v to %v", i, cuts[k-1], cuts[k])
					}
				}
			}
		}
		return covered(r)
	})
}

// TestForkEventuallyDetected: under a forking attack with active clients
// on both sides, every FAUST client outputs fail and the fork evidence
// passes Audit.
func TestForkEventuallyDetected(t *testing.T) {
	cfg := Config{N: 4, Ops: 3, Faust: true, Faults: []Fault{{Kind: ForkServer, Client: 2}}}
	eachSeed(t, cfg, func(r Result) error {
		if !r.Settled {
			return fmt.Errorf("not settled after %d steps (fails %v)", r.Steps, r.Fails)
		}
		return forkNotified(r)
	})
}

// TestFaustWorkloadStaysLinearizable: FAUST's dummy reads, mixed in with
// the user operations on every clock tick, keep the history linearizable.
func TestFaustWorkloadStaysLinearizable(t *testing.T) {
	eachSeed(t, Config{N: 3, Ops: 6, Faust: true}, func(r Result) error {
		return linearizable(r.History)
	})
}
