package faustproto_test

import (
	"errors"
	"fmt"
	"testing"

	"faust/internal/faustproto"
	"faust/internal/sim"
	"faust/internal/wire"
)

// These scenarios run the FAUST clients on the deterministic simulator:
// a fake clock drives the dummy reads and probes, and the seed orders
// every delivery. Each runs a few seeds and fails naming the one that
// broke; sim.Run(cfg) with that seed replays it.

const seeds = 6

func eachSeed(t *testing.T, cfg sim.Config, prop func(sim.Result) error) []sim.Result {
	t.Helper()
	var rs []sim.Result
	for seed := int64(1); seed <= seeds; seed++ {
		cfg.Seed = seed
		r := sim.Run(cfg)
		if err := prop(r); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rs = append(rs, r)
	}
	return rs
}

// fork splits two clients onto branches {0} and {1}.
var fork = []sim.Fault{{Kind: sim.ForkServer, Client: 1}}

// noFails rejects a run in which some client output fail.
func noFails(r sim.Result) error {
	for i, err := range r.Fails {
		if err != nil {
			return fmt.Errorf("client %d false-failed: %v", i, err)
		}
	}
	return nil
}

// allFailed rejects a run in which some client never output fail.
func allFailed(r sim.Result) error {
	for i, err := range r.Fails {
		if err == nil {
			return fmt.Errorf("client %d never detected the fork (%d steps)", i, r.Steps)
		}
	}
	return nil
}

// stable checks that each client's last completed operation is stable,
// in its final cut, w.r.t. every client.
func stable(r sim.Result) error {
	if !r.Settled {
		return fmt.Errorf("not settled after %d steps (fails %v)", r.Steps, r.Fails)
	}
	for i, cuts := range r.Cuts {
		var last int64
		for _, o := range r.History.ByClient(i) {
			if o.IsComplete() && o.Timestamp > last {
				last = o.Timestamp
			}
		}
		if last == 0 {
			continue
		}
		if len(cuts) == 0 {
			return fmt.Errorf("client %d: timestamp %d never became stable", i, last)
		}
		for j, w := range cuts[len(cuts)-1] {
			if w < last {
				return fmt.Errorf("client %d: final cut %v leaves timestamp %d unstable w.r.t. client %d", i, cuts[len(cuts)-1], last, j)
			}
		}
	}
	return nil
}

func TestStabilityThroughDummyReads(t *testing.T) {
	// Detection completeness (Definition 5 property 7), online path: with
	// a correct server and dummy reads, every operation eventually
	// becomes stable at its client w.r.t. everyone.
	eachSeed(t, sim.Config{N: 3, Ops: 1, Faust: true}, func(r sim.Result) error {
		if err := noFails(r); err != nil {
			return err
		}
		return stable(r)
	})
}

func TestStabilityCutMonotonic(t *testing.T) {
	eachSeed(t, sim.Config{N: 2, Ops: 5, Faust: true}, func(r sim.Result) error {
		if len(r.Cuts[0]) == 0 {
			return errors.New("no stable notifications delivered")
		}
		for i, cuts := range r.Cuts {
			for k := 1; k < len(cuts); k++ {
				for j := range cuts[k] {
					if cuts[k][j] < cuts[k-1][j] {
						return fmt.Errorf("client %d: stability cut regressed: %v then %v", i, cuts[k-1], cuts[k])
					}
				}
			}
		}
		return nil
	})
}

func TestStabilityViaOfflineProbesAfterServerCrash(t *testing.T) {
	// Detection completeness, offline path: the server goes silent after
	// three SUBMITs; the PROBE/VERSION exchange must still make every
	// completed operation stable. (Section 6: "a faulty server, even when
	// it only crashes, may prevent two clients that are consistent ...
	// from ever discovering that.")
	const served = 3
	cfg := sim.Config{N: 2, Ops: 2, Faust: true, Faults: []sim.Fault{{Kind: sim.CrashServer, At: served}}}
	blocked := 0
	for _, r := range eachSeed(t, cfg, func(r sim.Result) error {
		if err := noFails(r); err != nil {
			return err
		}
		if done := len(r.History.Complete().Ops); done > served {
			return fmt.Errorf("%d operations completed on a server silent after %d SUBMITs", done, served)
		}
		return stable(r)
	}) {
		blocked += len(r.History.Ops) - len(r.History.Complete().Ops)
	}
	if blocked == 0 {
		t.Fatal("no operation ever blocked: the server crash had no effect")
	}
}

func TestForkDetectedThroughOfflineExchange(t *testing.T) {
	// The canonical FAUST guarantee: a forking attack that USTOR cannot
	// see is caught by the offline version exchange, and ALL clients
	// eventually output fail (Definition 5 properties 5 and 7). At least
	// one client holds fork evidence (the other may have been convinced
	// by the FAILURE broadcast), and the evidence passes Audit.
	eachSeed(t, sim.Config{N: 2, Ops: 2, Faust: true, Faults: fork}, func(r sim.Result) error {
		if err := allFailed(r); err != nil {
			return err
		}
		for _, err := range r.Fails {
			var fe *faustproto.ForkError
			if errors.As(err, &fe) {
				if rep := faustproto.Audit(r.Ring, []wire.SignedVersion{fe.A, fe.B}); rep.OK {
					return fmt.Errorf("fork evidence does not pass Audit: %v", err)
				}
				return nil
			}
		}
		return fmt.Errorf("no fork evidence: %v", r.Fails)
	})
}

func TestNoStabilityAcrossFork(t *testing.T) {
	// Stability-detection accuracy: once both sides of a fork hold
	// diverged state, an operation must never become stable across the
	// fork. (Before the other side performs any operation, stability
	// w.r.t. it is trivially sound: an empty client is consistent with
	// every view. The paper's VERSION relay exploits that, so a cut may
	// vouch across the fork only for what its client had done by the
	// time the other side sent its first COMMIT.)
	eachSeed(t, sim.Config{N: 2, Ops: 2, Faust: true, Faults: fork}, func(r sim.Result) error {
		for i, cuts := range r.Cuts {
			j := 1 - i
			seen := r.FirstCommit[j]
			if seen == nil {
				continue
			}
			for _, w := range cuts {
				if w[j] > seen[i] {
					return fmt.Errorf("client %d: cut %v vouches for timestamp %d across the fork; client %d held state after %d", i, w, w[j], j, seen[i])
				}
			}
		}
		// And detection completeness: the fork is eventually reported.
		return allFailed(r)
	})
}

func TestOperationsFailAfterDetection(t *testing.T) {
	// After fail_i every operation of client i returns ErrHalted.
	halted := 0
	for _, r := range eachSeed(t, sim.Config{N: 2, Ops: 4, Faust: true, Faults: fork}, func(r sim.Result) error {
		if err := allFailed(r); err != nil {
			return err
		}
		for i, n := range r.AfterFail {
			if n > 0 {
				return fmt.Errorf("client %d: %d operations returned after fail", i, n)
			}
		}
		return nil
	}) {
		for _, n := range r.Halted {
			halted += n
		}
	}
	if halted == 0 {
		t.Fatal("no operation started after fail: nothing was checked")
	}
}
