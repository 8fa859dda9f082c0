package sim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"faust/internal/consistency"
	"faust/internal/faustproto"
	"faust/internal/history"
	"faust/internal/store"
	"faust/internal/wire"
)

// A row is one configuration of the sweep; faults draws its fault list
// from the seed.
type row struct {
	name   string
	cfg    Config
	faults func(r *rand.Rand, n int) []Fault
}

func forkAt(r *rand.Rand, n int) []Fault {
	return []Fault{{Kind: ForkServer, Client: 1 + r.Intn(n-1)}}
}

func batchCrash(kind string) func(*rand.Rand, int) []Fault {
	return func(r *rand.Rand, _ int) []Fault { return []Fault{{Kind: kind, At: r.Intn(60)}} }
}

var rows = []row{
	{"ustor-n2", Config{N: 2, Ops: 8}, nil},
	{"ustor-n4", Config{N: 4, Ops: 6}, nil},
	{"ustor-n8", Config{N: 8, Ops: 3}, nil},
	{"piggyback", Config{N: 3, Ops: 6, Piggyback: true}, nil},
	{"ustor-fork", Config{N: 4, Ops: 5}, forkAt},
	{"tamper", Config{N: 3, Ops: 5}, func(r *rand.Rand, n int) []Fault {
		kind := []string{TamperDrop, TamperBreak}[r.Intn(2)]
		return []Fault{{Kind: kind, At: 1 + r.Intn(4), Client: r.Intn(n)}}
	}},
	{"crash-server", Config{N: 3, Ops: 3, Faust: true}, func(r *rand.Rand, _ int) []Fault {
		return []Fault{{Kind: CrashServer, At: 2 + r.Intn(8)}}
	}},
	{"drop-commit", Config{N: 3, Ops: 4}, func(*rand.Rand, int) []Fault { return []Fault{{Kind: DropCommit}} }},
	{"faust-honest", Config{N: 3, Ops: 4, Faust: true}, nil},
	{"faust-fork", Config{N: 3, Ops: 3, Faust: true}, forkAt},
	{"client-crash", Config{N: 4, Ops: 4, Faust: true}, func(r *rand.Rand, n int) []Fault {
		return []Fault{{Kind: ClientCrash, At: r.Intn(80), Client: r.Intn(n)},
			{Kind: ClientCrash, At: r.Intn(80), Client: r.Intn(n)}}
	}},
	{"batch-crash-kept", Config{N: 3, Ops: 4, Faust: true}, batchCrash(BatchKept)},
	{"batch-crash-lost", Config{N: 3, Ops: 4, Faust: true}, batchCrash(BatchLost)},
}

// config returns row's configuration for seed, faults drawn.
func (rw row) config(seed int64) Config {
	cfg := rw.cfg
	cfg.Seed = seed
	if rw.faults != nil {
		cfg.Faults = rw.faults(rand.New(rand.NewSource(seed)), cfg.N)
	}
	return cfg
}

// TestSweep runs every row over a range of seeds and checks the oracle.
// A failing run is shrunk to the fewest faults that still fail it.
// Replay one with: go test ./internal/sim -run 'TestSweep/<row>/seed=N$'
func TestSweep(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 8
	}
	for _, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					cfg := rw.config(seed)
					err := check(cfg, Run(cfg))
					if err == nil {
						return
					}
					for i := 0; i < len(cfg.Faults); {
						try := cfg
						try.Faults = append(append([]Fault(nil), cfg.Faults[:i]...), cfg.Faults[i+1:]...)
						if check(try, Run(try)) != nil {
							cfg = try
						} else {
							i++
						}
					}
					t.Fatalf("row %s seed %d: %v\nreplay: go test ./internal/sim -run 'TestSweep/%s/seed=%d$'\nfaults (shrunk): %+v",
						rw.name, seed, err, rw.name, seed, cfg.Faults)
				})
			}
		})
	}
}

// TestReplay runs one seed of every row twice: the decisions and the
// honest server's final disk image must match.
func TestReplay(t *testing.T) {
	for _, rw := range rows {
		cfg := rw.config(3)
		a, b := Run(cfg), Run(cfg)
		if a.Fingerprint != b.Fingerprint || a.Steps != b.Steps || a.History.String() != b.History.String() {
			t.Errorf("%s: replay diverged: %d steps %x, then %d steps %x", rw.name, a.Steps, a.Fingerprint, b.Steps, b.Fingerprint)
		}
		if da, db := diskHash(t, a.Disk), diskHash(t, b.Disk); da != db {
			t.Errorf("%s: replay left disk images %x, then %x", rw.name, da, db)
		}
	}
}

// diskHash hashes a run's disk image; 0 for a run without one.
func diskHash(t *testing.T, d *store.MemDisk) uint64 {
	if d == nil {
		return 0
	}
	h := fnv.New64a()
	if _, err := d.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// check is the oracle: the paper's guarantees for the faults of cfg —
// safety first, then, once the run settled, liveness.
func check(cfg Config, r Result) error {
	h := r.History
	kind := map[string]Fault{}
	for _, f := range cfg.Faults {
		kind[f.Kind] = f
	}
	if r.Recovery != nil {
		return r.Recovery
	}
	if res := consistency.CheckCausal(h); !res.OK {
		return fmt.Errorf("not causal: %s", res.Reason)
	}
	for i, cuts := range r.Cuts {
		if r.AfterFail[i] > 0 {
			return fmt.Errorf("client %d did not halt: %d operations returned after fail", i, r.AfterFail[i])
		}
		for k := 1; k < len(cuts); k++ {
			for j := range cuts[k] {
				if cuts[k][j] < cuts[k-1][j] {
					return fmt.Errorf("client %d: cut regressed from %v to %v", i, cuts[k-1], cuts[k])
				}
			}
		}
	}
	fork, forked := kind[ForkServer]
	if forked {
		if err := forkSafe(r, fork.Client); err != nil {
			return err
		}
	} else if err := linearizable(h); err != nil {
		return err
	}
	// Accuracy: only a server that lost WAL records, forked FAUST clients,
	// dropped COMMITs or corrupted a reply may be exposed.
	brk, broken := kind[TamperBreak]
	_, dropped := kind[DropCommit]
	for i, err := range r.Fails {
		if err != nil && r.Lost == 0 && !(forked && cfg.Faust) && !dropped && !(broken && i == brk.Client) {
			return fmt.Errorf("client %d failed on a server that gave it no cause: %v", i, err)
		}
	}
	if f, ok := kind[CrashServer]; ok {
		if done := len(h.Complete().Ops); done > f.At {
			return fmt.Errorf("%d operations completed on a server silent after %d SUBMITs (dummy reads count)", done, f.At)
		}
	}
	drop, silenced := kind[TamperDrop]
	if ops := h.ByClient(drop.Client); silenced && len(ops) >= drop.At && ops[drop.At-1].IsComplete() {
		return fmt.Errorf("victim %d: %s completed without its reply", drop.Client, ops[drop.At-1])
	}
	if !r.Settled {
		return fmt.Errorf("not settled after %d steps (fails %v)", r.Steps, r.Fails)
	}

	// Liveness: detection where a check must fire, wait-freedom for every
	// client the server still serves. With a CrashServer, settling means
	// the completed operations became stable through PROBE/VERSION alone.
	if forked && cfg.Faust {
		if err := forkNotified(r); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.N; i++ {
		ops := len(h.ByClient(i))
		if dropped && ops >= 2 || broken && i == brk.Client && ops >= brk.At {
			if r.Fails[i] == nil {
				return fmt.Errorf("client %d ran %d operations undetected under %+v", i, ops, cfg.Faults)
			}
		}
	}
	_, silent := kind[CrashServer]
	served := func(c int) bool {
		return !silent && !r.Crashed[c] && r.Fails[c] == nil && !(silenced && c == drop.Client)
	}
	if res := consistency.CheckWaitFree(h, served); !res.OK {
		return fmt.Errorf("not wait-free: %s", res.Reason)
	}
	return nil
}

// forkSafe checks a run against a server forking clients [0, split) from
// [split, N): each branch is linearizable, and no FAUST cut vouches
// across the fork for more than the other branch had seen by the time
// it held state of its own. (Before that, an empty client is consistent
// with every view, and the VERSION relay may rightly say so.)
func forkSafe(r Result, split int) error {
	branch := func(c int) bool { return c < split }
	for _, side := range []bool{true, false} {
		sub := history.History{N: r.History.N}
		for _, o := range r.History.Ops {
			if branch(o.Client) == side {
				sub.Ops = append(sub.Ops, o)
			}
		}
		if err := linearizable(sub); err != nil {
			return fmt.Errorf("branch: %v", err)
		}
	}
	for i, cuts := range r.Cuts {
		for j, seen := range r.FirstCommit {
			if branch(i) == branch(j) || seen == nil {
				continue
			}
			for _, w := range cuts {
				if w[j] > seen[i] {
					return fmt.Errorf("client %d: cut %v vouches across the fork for op %d; client %d held state of its own after op %d", i, w, w[j], j, seen[i])
				}
			}
		}
	}
	return nil
}

// forkNotified checks that every client output fail and that the fork
// evidence any of them holds passes Audit.
func forkNotified(r Result) error {
	evidence := 0
	for i, err := range r.Fails {
		if err == nil {
			return fmt.Errorf("client %d never notified of the fork", i)
		}
		var fe *faustproto.ForkError
		if errors.As(err, &fe) {
			evidence++
			if rep := faustproto.Audit(r.Ring, []wire.SignedVersion{fe.A, fe.B}); rep.OK || rep.A.Sig == nil {
				return fmt.Errorf("client %d: fork evidence does not pass Audit: %+v", i, rep)
			}
		}
	}
	if evidence == 0 {
		return fmt.Errorf("no client holds fork evidence: %v", r.Fails)
	}
	return nil
}

func linearizable(h history.History) error {
	if res := consistency.CheckLinearizable(h); !res.OK {
		return fmt.Errorf("not linearizable: %s\n%s", res.Reason, h)
	}
	return nil
}
