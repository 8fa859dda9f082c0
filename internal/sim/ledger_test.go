package sim

import (
	"fmt"
	"testing"

	"faust/internal/obs"
)

// ledgerRow is the exact Ed25519 cost of one honest run: the completed
// user operations, the protocol operations (the SUBMITs the dispatcher
// applied: the user operations plus, for FAUST clients, their dummy
// reads), and the real signatures and verifications the whole stack
// performed for them.
type ledgerRow struct {
	n         int
	piggyback bool
	seed      int64
	ops       int
	submits   int64
	signs     int64
	verifies  int64
}

func (r ledgerRow) String() string {
	return fmt.Sprintf("{%d, %v, %d, %d, %d, %d, %d}, // per op %.2f signs, %.2f verifies; per SUBMIT %.2f, %.2f",
		r.n, r.piggyback, r.seed, r.ops, r.submits, r.signs, r.verifies,
		float64(r.signs)/float64(r.ops), float64(r.verifies)/float64(r.ops),
		float64(r.signs)/float64(r.submits), float64(r.verifies)/float64(r.submits))
}

// ledger is the table TestCryptoLedger pins. A change to what an
// operation signs or verifies shows up as a diff of these rows.
var ledger = []ledgerRow{
	{2, false, 1, 12, 12, 24, 13},  // per op 2.00 signs, 1.08 verifies; per SUBMIT 2.00, 1.08
	{2, false, 2, 12, 12, 24, 9},   // per op 2.00 signs, 0.75 verifies; per SUBMIT 2.00, 0.75
	{2, false, 3, 12, 12, 24, 12},  // per op 2.00 signs, 1.00 verifies; per SUBMIT 2.00, 1.00
	{2, false, 4, 12, 12, 24, 11},  // per op 2.00 signs, 0.92 verifies; per SUBMIT 2.00, 0.92
	{2, true, 1, 12, 12, 24, 15},   // per op 2.00 signs, 1.25 verifies; per SUBMIT 2.00, 1.25
	{2, true, 2, 12, 12, 24, 14},   // per op 2.00 signs, 1.17 verifies; per SUBMIT 2.00, 1.17
	{2, true, 3, 12, 12, 24, 11},   // per op 2.00 signs, 0.92 verifies; per SUBMIT 2.00, 0.92
	{2, true, 4, 12, 12, 24, 12},   // per op 2.00 signs, 1.00 verifies; per SUBMIT 2.00, 1.00
	{8, false, 1, 48, 48, 96, 179}, // per op 2.00 signs, 3.73 verifies; per SUBMIT 2.00, 3.73
	{8, false, 2, 48, 48, 96, 165}, // per op 2.00 signs, 3.44 verifies; per SUBMIT 2.00, 3.44
	{8, false, 3, 48, 48, 96, 151}, // per op 2.00 signs, 3.15 verifies; per SUBMIT 2.00, 3.15
	{8, false, 4, 48, 48, 96, 145}, // per op 2.00 signs, 3.02 verifies; per SUBMIT 2.00, 3.02
	{8, true, 1, 48, 48, 96, 204},  // per op 2.00 signs, 4.25 verifies; per SUBMIT 2.00, 4.25
	{8, true, 2, 48, 48, 96, 190},  // per op 2.00 signs, 3.96 verifies; per SUBMIT 2.00, 3.96
	{8, true, 3, 48, 48, 96, 212},  // per op 2.00 signs, 4.42 verifies; per SUBMIT 2.00, 4.42
	{8, true, 4, 48, 48, 96, 245},  // per op 2.00 signs, 5.10 verifies; per SUBMIT 2.00, 5.10
}

// faustLedger is ledger for FAUST clients, piggyback off: their USTOR
// operations plus the dummy reads, VERSION and evidence checks of the
// failure detector.
var faustLedger = []ledgerRow{
	{2, false, 1, 12, 62, 124, 76},    // per op 10.33 signs, 6.33 verifies; per SUBMIT 2.00, 1.23
	{2, false, 2, 12, 24, 48, 26},     // per op 4.00 signs, 2.17 verifies; per SUBMIT 2.00, 1.08
	{2, false, 3, 12, 142, 284, 182},  // per op 23.67 signs, 15.17 verifies; per SUBMIT 2.00, 1.28
	{2, false, 4, 12, 25, 52, 35},     // per op 4.33 signs, 2.92 verifies; per SUBMIT 2.08, 1.40
	{8, false, 1, 48, 378, 754, 2367}, // per op 15.71 signs, 49.31 verifies; per SUBMIT 1.99, 6.26
	{8, false, 2, 48, 214, 426, 1223}, // per op 8.88 signs, 25.48 verifies; per SUBMIT 1.99, 5.71
	{8, false, 3, 48, 411, 822, 2564}, // per op 17.12 signs, 53.42 verifies; per SUBMIT 2.00, 6.24
	{8, false, 4, 48, 483, 968, 3097}, // per op 20.17 signs, 64.52 verifies; per SUBMIT 2.00, 6.41
}

// ledgerOps is the number of user operations per client in a ledger run.
const ledgerOps = 6

// edOps returns how many SUBMITs the dispatcher has applied, and how
// many Ed25519 signatures and verifications the process has performed so
// far.
func edOps() (submits, signs, verifies int64) {
	r := obs.Default()
	return r.Histogram("faust_ustor_op_latency_ns", "op", "submit").Snapshot().Count,
		r.Histogram("faust_ed25519_sign_ns").Snapshot().Count, r.Histogram("faust_ed25519_verify_ns").Snapshot().Count
}

// TestCryptoLedger runs honest USTOR and FAUST configurations and checks
// the real Ed25519 signatures and verifications per completed
// operation against ledger and faustLedger. The counters are process-wide, so this
// test must never run in parallel with another. A failure prints the
// rows the runs produced.
func TestCryptoLedger(t *testing.T) {
	run := func(cfg Config) ledgerRow {
		p0, s0, v0 := edOps()
		r := Run(cfg)
		p1, s1, v1 := edOps()
		if err := check(cfg, r); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		return ledgerRow{cfg.N, cfg.Piggyback, cfg.Seed, len(r.History.Complete().Ops), p1 - p0, s1 - s0, v1 - v0}
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
