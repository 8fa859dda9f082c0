package crypto

import "testing"

// BenchmarkKernel times the Ed25519 kernel through the public API: one
// plain Keyring.Verify under one key; the same round robin over 16 keys
// with 1 MiB written between checks, so each check finds its key's
// tables out of the cache; and one plain Signer.Sign.
//
//	go test -run '^$' -bench Kernel -benchmem ./internal/crypto
func BenchmarkKernel(b *testing.B) {
	ring, signers := NewTestKeyring(16, 5)
	payload := []byte("kernel benchmark payload")
	sigs := make([][]byte, len(signers))
	for i, s := range signers {
		sigs[i] = s.Sign(DomainCommit, payload)
	}
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !ring.Verify(0, sigs[0], DomainCommit, payload) {
				b.Fatal("valid signature rejected")
			}
		}
	})
	evict := make([]byte, 1<<20)
	b.Run("verify/keys=16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := 0; j < len(evict); j += 64 {
				evict[j]++
			}
			b.StartTimer()
			k := i % len(signers)
			if !ring.Verify(k, sigs[k], DomainCommit, payload) {
				b.Fatal("valid signature rejected")
			}
		}
	})
	b.Run("sign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			signers[0].Sign(DomainCommit, payload)
		}
	})
}
