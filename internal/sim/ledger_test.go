package sim

import (
	"fmt"
	"testing"

	"faust/internal/obs"
)

// ledgerRow is the exact Ed25519 cost of one honest run: the completed
// operations and the real signatures and verifications the whole stack
// performed for them.
type ledgerRow struct {
	n         int
	piggyback bool
	seed      int64
	ops       int
	signs     int64
	verifies  int64
}

func (r ledgerRow) String() string {
	return fmt.Sprintf("{%d, %v, %d, %d, %d, %d}, // %.2f signs, %.2f verifies per op",
		r.n, r.piggyback, r.seed, r.ops, r.signs, r.verifies,
		float64(r.signs)/float64(r.ops), float64(r.verifies)/float64(r.ops))
}

// ledger is the table TestCryptoLedger pins. A change to what an
// operation signs or verifies shows up as a diff of these rows.
var ledger = []ledgerRow{
	{2, false, 1, 12, 24, 13},  // 2.00 signs, 1.08 verifies per op
	{2, false, 2, 12, 24, 9},   // 2.00 signs, 0.75 verifies per op
	{2, false, 3, 12, 24, 12},  // 2.00 signs, 1.00 verifies per op
	{2, false, 4, 12, 24, 11},  // 2.00 signs, 0.92 verifies per op
	{2, true, 1, 12, 24, 15},   // 2.00 signs, 1.25 verifies per op
	{2, true, 2, 12, 24, 14},   // 2.00 signs, 1.17 verifies per op
	{2, true, 3, 12, 24, 11},   // 2.00 signs, 0.92 verifies per op
	{2, true, 4, 12, 24, 12},   // 2.00 signs, 1.00 verifies per op
	{8, false, 1, 48, 96, 179}, // 2.00 signs, 3.73 verifies per op
	{8, false, 2, 48, 96, 165}, // 2.00 signs, 3.44 verifies per op
	{8, false, 3, 48, 96, 151}, // 2.00 signs, 3.15 verifies per op
	{8, false, 4, 48, 96, 145}, // 2.00 signs, 3.02 verifies per op
	{8, true, 1, 48, 96, 204},  // 2.00 signs, 4.25 verifies per op
	{8, true, 2, 48, 96, 190},  // 2.00 signs, 3.96 verifies per op
	{8, true, 3, 48, 96, 212},  // 2.00 signs, 4.42 verifies per op
	{8, true, 4, 48, 96, 245},  // 2.00 signs, 5.10 verifies per op
}

// faustLedger is ledger for FAUST clients, piggyback off: their USTOR
// operations plus the dummy reads, VERSION and evidence checks of the
// failure detector.
var faustLedger = []ledgerRow{
	{2, false, 1, 12, 124, 77},   // 10.33 signs, 6.42 verifies per op
	{2, false, 2, 12, 48, 26},    // 4.00 signs, 2.17 verifies per op
	{2, false, 3, 12, 284, 182},  // 23.67 signs, 15.17 verifies per op
	{2, false, 4, 12, 52, 35},    // 4.33 signs, 2.92 verifies per op
	{8, false, 1, 48, 754, 2371}, // 15.71 signs, 49.40 verifies per op
	{8, false, 2, 48, 426, 1225}, // 8.88 signs, 25.52 verifies per op
	{8, false, 3, 48, 822, 2572}, // 17.12 signs, 53.58 verifies per op
	{8, false, 4, 48, 968, 3101}, // 20.17 signs, 64.60 verifies per op
}

// ledgerOps is the number of user operations per client in a ledger run.
const ledgerOps = 6

// edOps returns how many Ed25519 signatures and verifications the
// process has performed so far.
func edOps() (signs, verifies int64) {
	r := obs.Default()
	return r.Histogram("faust_ed25519_sign_ns").Snapshot().Count, r.Histogram("faust_ed25519_verify_ns").Snapshot().Count
}

// TestCryptoLedger runs honest USTOR and FAUST configurations and checks
// the real Ed25519 signatures and verifications per completed operation
// against ledger and faustLedger. The counters are process-wide, so this
// test must never run in parallel with another. A failure prints the
// rows the runs produced.
func TestCryptoLedger(t *testing.T) {
	run := func(cfg Config) ledgerRow {
		s0, v0 := edOps()
		r := Run(cfg)
		s1, v1 := edOps()
		if err := check(cfg, r); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		return ledgerRow{cfg.N, cfg.Piggyback, cfg.Seed, len(r.History.Complete().Ops), s1 - s0, v1 - v0}
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
