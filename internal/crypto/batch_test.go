package crypto

import (
	"runtime"
	"sync"
	"testing"
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

// The verification pool is GOMAXPROCS wide; the tests below set it and
// restore the old value.

func TestVerifyBatchMatchesVerify(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	ring, signers := NewTestKeyring(4, 7)
	forged := map[int]bool{3: true, 10: true}
	for _, workers := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(workers)
		for _, count := range []int{1, 2, 5, 17, 64} {
			jobs := buildJobs(t, ring, signers, count, forged)
			VerifyBatch(jobs)
			for i, j := range jobs {
				want := ring.Verify(j.Signer, j.Sig, j.Domain, j.Payload)
				if j.OK != want {
					t.Fatalf("workers=%d count=%d job %d: VerifyBatch=%v, Verify=%v", workers, count, i, j.OK, want)
				}
				if forged[i] && j.OK {
					t.Fatalf("workers=%d count=%d job %d: forged signature accepted", workers, count, i)
				}
			}
		}
	}
}

func TestVerifyBatchEdgeJobs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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

// TestVerifyBatchConcurrent exercises the shared pool from many
// dispatchers at once; run with -race.
func TestVerifyBatchConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
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
