package sim

import (
	"fmt"
	"testing"

	"faust/internal/obs"
)

// ledgerRow is the exact Ed25519 cost of one honest run: the completed
// user operations, the protocol operations (the SUBMITs the dispatcher
// applied: the user operations plus, for FAUST clients, their dummy
// reads), the real signatures and verifications the whole stack
// performed for them, and the equations those verifications took (one
// per single verification, one per batch).
type ledgerRow struct {
	n         int
	piggyback bool
	seed      int64
	ops       int
	submits   int64
	signs     int64
	verifies  int64
	equations int64
}

func (r ledgerRow) String() string {
	return fmt.Sprintf("{%d, %v, %d, %d, %d, %d, %d, %d}, // per op %.2f signs, %.2f verifies, %.2f equations; per SUBMIT %.2f, %.2f, %.2f",
		r.n, r.piggyback, r.seed, r.ops, r.submits, r.signs, r.verifies, r.equations,
		float64(r.signs)/float64(r.ops), float64(r.verifies)/float64(r.ops), float64(r.equations)/float64(r.ops),
		float64(r.signs)/float64(r.submits), float64(r.verifies)/float64(r.submits), float64(r.equations)/float64(r.submits))
}

// ledger is the table TestCryptoLedger pins. A change to what an
// operation signs or verifies shows up as a diff of these rows.
var ledger = []ledgerRow{
	{2, false, 1, 12, 12, 24, 13, 10},  // per op 2.00 signs, 1.08 verifies, 0.83 equations; per SUBMIT 2.00, 1.08, 0.83
	{2, false, 2, 12, 12, 24, 9, 6},    // per op 2.00 signs, 0.75 verifies, 0.50 equations; per SUBMIT 2.00, 0.75, 0.50
	{2, false, 3, 12, 12, 24, 12, 8},   // per op 2.00 signs, 1.00 verifies, 0.67 equations; per SUBMIT 2.00, 1.00, 0.67
	{2, false, 4, 12, 12, 24, 11, 8},   // per op 2.00 signs, 0.92 verifies, 0.67 equations; per SUBMIT 2.00, 0.92, 0.67
	{2, true, 1, 12, 12, 24, 15, 10},   // per op 2.00 signs, 1.25 verifies, 0.83 equations; per SUBMIT 2.00, 1.25, 0.83
	{2, true, 2, 12, 12, 24, 14, 10},   // per op 2.00 signs, 1.17 verifies, 0.83 equations; per SUBMIT 2.00, 1.17, 0.83
	{2, true, 3, 12, 12, 24, 11, 8},    // per op 2.00 signs, 0.92 verifies, 0.67 equations; per SUBMIT 2.00, 0.92, 0.67
	{2, true, 4, 12, 12, 24, 12, 8},    // per op 2.00 signs, 1.00 verifies, 0.67 equations; per SUBMIT 2.00, 1.00, 0.67
	{8, false, 1, 48, 48, 96, 179, 47}, // per op 2.00 signs, 3.73 verifies, 0.98 equations; per SUBMIT 2.00, 3.73, 0.98
	{8, false, 2, 48, 48, 96, 165, 46}, // per op 2.00 signs, 3.44 verifies, 0.96 equations; per SUBMIT 2.00, 3.44, 0.96
	{8, false, 3, 48, 48, 96, 151, 46}, // per op 2.00 signs, 3.15 verifies, 0.96 equations; per SUBMIT 2.00, 3.15, 0.96
	{8, false, 4, 48, 48, 96, 145, 46}, // per op 2.00 signs, 3.02 verifies, 0.96 equations; per SUBMIT 2.00, 3.02, 0.96
	{8, true, 1, 48, 48, 96, 204, 47},  // per op 2.00 signs, 4.25 verifies, 0.98 equations; per SUBMIT 2.00, 4.25, 0.98
	{8, true, 2, 48, 48, 96, 190, 47},  // per op 2.00 signs, 3.96 verifies, 0.98 equations; per SUBMIT 2.00, 3.96, 0.98
	{8, true, 3, 48, 48, 96, 212, 46},  // per op 2.00 signs, 4.42 verifies, 0.96 equations; per SUBMIT 2.00, 4.42, 0.96
	{8, true, 4, 48, 48, 96, 245, 47},  // per op 2.00 signs, 5.10 verifies, 0.98 equations; per SUBMIT 2.00, 5.10, 0.98
}

// faustLedger is ledger for FAUST clients, piggyback off: their USTOR
// operations plus the dummy reads, VERSION and evidence checks of the
// failure detector.
var faustLedger = []ledgerRow{
	{2, false, 1, 12, 62, 124, 76, 59},      // per op 10.33 signs, 6.33 verifies, 4.92 equations; per SUBMIT 2.00, 1.23, 0.95
	{2, false, 2, 12, 24, 48, 26, 18},       // per op 4.00 signs, 2.17 verifies, 1.50 equations; per SUBMIT 2.00, 1.08, 0.75
	{2, false, 3, 12, 142, 284, 182, 136},   // per op 23.67 signs, 15.17 verifies, 11.33 equations; per SUBMIT 2.00, 1.28, 0.96
	{2, false, 4, 12, 25, 52, 35, 28},       // per op 4.33 signs, 2.92 verifies, 2.33 equations; per SUBMIT 2.08, 1.40, 1.12
	{8, false, 1, 48, 378, 754, 2367, 1088}, // per op 15.71 signs, 49.31 verifies, 22.67 equations; per SUBMIT 1.99, 6.26, 2.88
	{8, false, 2, 48, 214, 426, 1223, 558},  // per op 8.88 signs, 25.48 verifies, 11.62 equations; per SUBMIT 1.99, 5.71, 2.61
	{8, false, 3, 48, 411, 822, 2564, 1191}, // per op 17.12 signs, 53.42 verifies, 24.81 equations; per SUBMIT 2.00, 6.24, 2.90
	{8, false, 4, 48, 483, 968, 3097, 1481}, // per op 20.17 signs, 64.52 verifies, 30.85 equations; per SUBMIT 2.00, 6.41, 3.07
}

// ledgerOps is the number of user operations per client in a ledger run.
const ledgerOps = 6

// edOps returns how many SUBMITs the dispatcher has applied, and how
// many Ed25519 signatures, verifications and verification equations the
// process has performed so far.
func edOps() (submits, signs, verifies, equations int64) {
	r := obs.Default()
	return r.Histogram("faust_ustor_op_latency_ns", "op", "submit").Snapshot().Count,
		r.Histogram("faust_ed25519_sign_ns").Snapshot().Count, r.Histogram("faust_ed25519_verify_ns").Snapshot().Count,
		r.Histogram("faust_ed25519_batch_ns").Snapshot().Count
}

// TestCryptoLedger runs honest USTOR and FAUST configurations and checks
// the real Ed25519 signatures, verifications and equations per completed
// operation against ledger and faustLedger. The counters are process-wide, so this
// test must never run in parallel with another. A failure prints the
// rows the runs produced.
func TestCryptoLedger(t *testing.T) {
	run := func(cfg Config) ledgerRow {
		p0, s0, v0, e0 := edOps()
		r := Run(cfg)
		p1, s1, v1, e1 := edOps()
		if err := check(cfg, r); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		return ledgerRow{cfg.N, cfg.Piggyback, cfg.Seed, len(r.History.Complete().Ops), p1 - p0, s1 - s0, v1 - v0, e1 - e0}
	}
	var got, gotFaust []ledgerRow
	for _, n := range []int{2, 8} {
		for _, piggyback := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				got = append(got, run(Config{N: n, Ops: ledgerOps, Seed: seed, Piggyback: piggyback}))
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			gotFaust = append(gotFaust, run(Config{N: n, Ops: ledgerOps, Seed: seed, Faust: true}))
		}
	}
	compareLedger(t, "ledger", got, ledger)
	compareLedger(t, "faustLedger", gotFaust, faustLedger)
}

// compareLedger reports every row of got that differs from want.
func compareLedger(t *testing.T, name string, got, want []ledgerRow) {
	t.Helper()
	if fmt.Sprint(got) == fmt.Sprint(want) {
		return
	}
	for i, g := range got {
		if i >= len(want) || g != want[i] {
			t.Errorf("%s row %d: got %v", name, i, g)
		}
	}
	t.Logf("the runs' %s:", name)
	for _, g := range got {
		t.Logf("\t%v", g)
	}
}
