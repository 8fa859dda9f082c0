package crypto

import (
	"crypto/ed25519"
	"fmt"
	"math/big"
	"math/rand/v2"
	"sync"
	"testing"

	"faust/internal/crypto/internal/edwards25519"
)

// buildJobs signs one payload per client and returns matching jobs, with
// forged[i] jobs carrying a signature from the wrong signer.
func buildJobs(t *testing.T, ring *Keyring, signers []*Signer, count int, forged map[int]bool) []VerifyJob {
	t.Helper()
	jobs := make([]VerifyJob, count)
	for i := range jobs {
		signer := signers[i%len(signers)]
		payload := []byte{byte(i), byte(i >> 8), 0xAB}
		sig := signer.Sign(DomainSubmit, payload)
		if forged[i] {
			sig = signers[(i+1)%len(signers)].Sign(DomainSubmit, payload)
		}
		jobs[i] = VerifyJob{Ring: ring, Signer: signer.ID(), Domain: DomainSubmit, Sig: sig, Payload: payload}
	}
	return jobs
}

func TestVerifyBatchMatchesVerify(t *testing.T) {
	ring, signers := NewTestKeyring(4, 7)
	forged := map[int]bool{3: true, 10: true, 11: true}
	for _, count := range []int{1, 2, 5, 12, 17, 64} {
		jobs := buildJobs(t, ring, signers, count, forged)
		VerifyBatch(jobs)
		for i, j := range jobs {
			want := stdVerify(ring, check{j.Signer, j.Sig, j.Domain, j.Payload})
			if j.OK != want {
				t.Fatalf("count=%d job %d: VerifyBatch=%v, ed25519.Verify=%v", count, i, j.OK, want)
			}
			if forged[i] && j.OK {
				t.Fatalf("count=%d job %d: forged signature accepted", count, i)
			}
		}
	}
}

func TestVerifyBatchEdgeJobs(t *testing.T) {
	ring, signers := NewTestKeyring(2, 9)
	payload := []byte("edge")
	sig := signers[0].Sign(DomainSubmit, payload)
	jobs := []VerifyJob{
		{Ring: ring, Signer: 0, Domain: DomainSubmit, Sig: sig, Payload: payload},
		{Ring: nil, Signer: 0, Domain: DomainSubmit, Sig: sig, Payload: payload},        // nil ring
		{Ring: ring, Signer: 5, Domain: DomainSubmit, Sig: sig, Payload: payload},       // out of range
		{Ring: ring, Signer: 0, Domain: DomainCommit, Sig: sig, Payload: payload},       // wrong domain
		{Ring: ring, Signer: 0, Domain: DomainSubmit, Sig: sig[:10], Payload: payload},  // malformed sig
		{Ring: ring, Signer: 1, Domain: DomainSubmit, Sig: sig, Payload: payload},       // wrong signer
		{Ring: ring, Signer: 0, Domain: DomainSubmit, Sig: sig, Payload: []byte("eel")}, // wrong payload
	}
	VerifyBatch(jobs)
	want := []bool{true, false, false, false, false, false, false}
	for i := range jobs {
		if jobs[i].OK != want[i] {
			t.Fatalf("job %d: OK=%v, want %v", i, jobs[i].OK, want[i])
		}
	}
}

// TestVerifyBatchConcurrent exercises the pooled batch scratch from many
// dispatchers at once; run with -race.
func TestVerifyBatchConcurrent(t *testing.T) {
	ring, signers := NewTestKeyring(3, 11)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			forged := map[int]bool{g % 5: true}
			for round := 0; round < 20; round++ {
				jobs := buildJobs(t, ring, signers, 9, forged)
				VerifyBatch(jobs)
				for i, j := range jobs {
					if j.OK == forged[i] {
						t.Errorf("goroutine %d round %d job %d: OK=%v with forged=%v", g, round, i, j.OK, forged[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// check is one signature check of a batch test.
type check struct {
	signer  int
	sig     []byte
	domain  byte
	payload []byte
}

// honestChecks returns every leaf each of the ring's signers signed in a
// plain signature, a pair and a triple.
func honestChecks(signers []*Signer) []check {
	var out []check
	for _, s := range signers {
		plain := s.Sign(DomainCommit, pairA)
		pa, pb := signTestPair(s)
		ta, tb, tc := signTestTriple(s)
		out = append(out,
			check{s.ID(), plain, DomainCommit, pairA},
			check{s.ID(), pa, DomainSubmit, pairA},
			check{s.ID(), pb, DomainData, pairB},
			check{s.ID(), ta, DomainSubmit, pairA},
			check{s.ID(), tb, DomainData, pairB},
			check{s.ID(), tc, DomainProof, tripleC},
		)
	}
	return out
}

// The mutations a batch test applies to one of its checks.
const (
	mutR          = iota // flip bits in a byte of R
	mutS                 // flip bits in a byte of s
	mutPath              // flip bits in the path byte or a sibling
	mutPayload           // flip bits in a payload byte, or extend the payload
	mutSPlusOrder        // replace s by s + ℓ
	mutNonCanonR         // replace R by a non-canonical encoding
	mutSmallOrder        // add a point of small order to R
	mutSigner            // claim another signer
	mutations
)

// nonCanonicalR holds encodings crypto/ed25519 never accepts as R: y ≥ p
// (p itself, p + 1 and 2²⁵⁵ − 1), and the sign bit set on the two points
// whose x is zero.
var nonCanonicalR = func() [][]byte {
	p := make([]byte, 32)
	for i := range p {
		p[i] = 0xff
	}
	p[0], p[31] = 0xed, 0x7f
	pPlus1 := append([]byte(nil), p...)
	pPlus1[0] = 0xee
	all := append([]byte(nil), p...)
	all[0] = 0xff
	negZeroOne := make([]byte, 32)
	negZeroOne[0], negZeroOne[31] = 1, 0x80
	negZeroMinus1 := append([]byte(nil), p...)
	negZeroMinus1[0], negZeroMinus1[31] = 0xec, 0xff
	return [][]byte{p, pPlus1, all, negZeroOne, negZeroMinus1}
}()

// smallOrder holds points of order 2 and 4.
var smallOrder = func() []*edwards25519.Point {
	minus1 := append([]byte(nil), nonCanonicalR[0]...)
	minus1[0] = 0xec // y = p − 1: (0, −1), order 2
	var out []*edwards25519.Point
	for _, enc := range [][]byte{minus1, make([]byte, 32)} { // y = 0: order 4
		pt, err := new(edwards25519.Point).SetBytes(enc)
		if err != nil {
			panic(err)
		}
		out = append(out, pt)
	}
	return out
}()

// order is ℓ, the order of the base point.
var order, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// mutate returns c with mutation kind applied; pos and val pick the byte
// and the bits.
func mutate(c check, kind int, pos int, val byte, n int) check {
	sig := append([]byte(nil), c.sig...)
	payload := append([]byte(nil), c.payload...)
	flip := val | 1
	switch kind {
	case mutR:
		sig[pos%32] ^= flip
	case mutS:
		sig[32+pos%32] ^= flip
	case mutPath:
		if len(sig) == ed25519.SignatureSize {
			sig[pos%len(sig)] ^= flip
		} else {
			tail := sig[ed25519.SignatureSize:]
			tail[pos%len(tail)] ^= flip
		}
	case mutPayload:
		if len(payload) == 0 || pos%4 == 0 {
			payload = append(payload, val)
		} else {
			payload[pos%len(payload)] ^= flip
		}
	case mutSPlusOrder:
		s := littleEndianInt(sig[32:64])
		s.Add(s, order)
		putLittleEndian(sig[32:64], s)
	case mutNonCanonR:
		copy(sig, nonCanonicalR[pos%len(nonCanonicalR)])
	case mutSmallOrder:
		r, err := new(edwards25519.Point).SetBytes(sig[:32])
		if err != nil {
			panic(err)
		}
		copy(sig, r.Add(r, smallOrder[pos%len(smallOrder)]).Bytes())
	case mutSigner:
		c.signer = (c.signer + 1 + pos%(n-1)) % n
	}
	c.sig, c.payload = sig, payload
	return c
}

func littleEndianInt(le []byte) *big.Int {
	be := make([]byte, len(le))
	for i, c := range le {
		be[len(le)-1-i] = c
	}
	return new(big.Int).SetBytes(be)
}

func putLittleEndian(le []byte, x *big.Int) {
	be := x.FillBytes(make([]byte, len(le)))
	for i, c := range be {
		le[len(le)-1-i] = c
	}
}

// stdVerify is the oracle of the batch tests: Keyring.Verify with its
// Ed25519 verification made by crypto/ed25519.Verify on the Ed25519
// message, the plain domain‖payload or a tree's recomputed root message.
func stdVerify(ring *Keyring, c check) bool {
	if c.signer < 0 || c.signer >= ring.N() {
		return false
	}
	switch len(c.sig) {
	case ed25519.SignatureSize:
		return c.domain != DomainPair && ed25519.Verify(ring.pubs[c.signer], append([]byte{c.domain}, c.payload...), c.sig)
	case PairSigSize, TripleSigSize:
		msg, ed, ok := treeMessage(c.sig, c.domain, c.payload)
		return ok && ed25519.Verify(ring.pubs[c.signer], msg[:], ed)
	}
	return false
}

// firstFailure returns the index of the first check stdVerify rejects,
// or -1.
func firstFailure(ring *Keyring, checks []check) int {
	for i, c := range checks {
		if !stdVerify(ring, c) {
			return i
		}
	}
	return -1
}

// memoFirstFailure decides checks the way a USTOR client decides a
// REPLY: in order, through VerifyMemo with one memo per signer, so
// identical signatures merge, until one fails. It returns the index of
// that check, or -1.
func memoFirstFailure(ring *Keyring, checks []check) int {
	memos := make([]PairMemo, ring.N())
	for i, c := range checks {
		if !ring.VerifyMemo(&memos[c.signer], c.signer, c.sig, c.domain, c.payload) {
			return i
		}
	}
	return -1
}

// checkBatch compares the verdicts on checks with stdVerify's, one check
// at a time: every job's OK through VerifyBatch, and the first check
// that fails through memos. Keyring.Verify runs the kernel under test,
// so only the standard library can tell whether it is wrong.
func checkBatch(t *testing.T, ring *Keyring, checks []check) {
	t.Helper()
	want := firstFailure(ring, checks)
	jobs := make([]VerifyJob, len(checks))
	for i, c := range checks {
		jobs[i] = VerifyJob{Ring: ring, Signer: c.signer, Domain: c.domain, Sig: c.sig, Payload: c.payload}
	}
	VerifyBatch(jobs)
	for i, c := range checks {
		if want := stdVerify(ring, c); jobs[i].OK != want {
			t.Fatalf("VerifyBatch job %d: OK=%v, ed25519.Verify=%v", i, jobs[i].OK, want)
		}
	}
	if got := memoFirstFailure(ring, checks); got != want {
		t.Fatalf("VerifyMemo: first failure %d, ed25519.Verify: %d", got, want)
	}
}

// TestBatchVerifyMutations applies every mutation to every position of a
// batch of honest plain, pair and triple signatures by three signers.
func TestBatchVerifyMutations(t *testing.T) {
	ring, signers := NewTestKeyring(3, 21)
	honest := honestChecks(signers)
	checkBatch(t, ring, honest)
	for kind := 0; kind < mutations; kind++ {
		for at := range honest {
			t.Run(fmt.Sprintf("mutation=%d/at=%d", kind, at), func(t *testing.T) {
				checks := append([]check(nil), honest...)
				checks[at] = mutate(checks[at], kind, at*7, byte(at), ring.N())
				if stdVerify(ring, checks[at]) {
					t.Fatal("the mutated signature still verifies")
				}
				checkBatch(t, ring, checks)
			})
		}
	}
}

// FuzzBatchVerify: for a batch of honest plain, pair and triple
// signatures with one mutation, the verdict of VerifyBatch per job, and
// the first failing check through memos, are those of ed25519.Verify
// one at a time.
func FuzzBatchVerify(f *testing.F) {
	ring, signers := NewTestKeyring(3, 22)
	honest := honestChecks(signers)
	for kind := 0; kind < mutations; kind++ {
		f.Add(uint64(kind), uint8(6), uint8(kind), uint8(kind), uint16(kind), byte(kind))
	}
	f.Add(uint64(99), uint8(1), uint8(0), uint8(mutS), uint16(3), byte(0x80))
	f.Fuzz(func(t *testing.T, seed uint64, size, at, kind uint8, pos uint16, val byte) {
		rng := rand.New(rand.NewPCG(seed, 0))
		checks := make([]check, int(size)%12+1)
		for i := range checks {
			checks[i] = honest[rng.IntN(len(honest))]
		}
		i := int(at) % len(checks)
		checks[i] = mutate(checks[i], int(kind)%mutations, int(pos), val, ring.N())
		checkBatch(t, ring, checks)
	})
}
