package crypto

import (
	"fmt"
	"testing"
)

// BenchmarkKernel times the two uses of the Ed25519 verification kernel
// through the public API: one plain Keyring.Verify, and one batch
// equation over n plain signatures of n distinct signers (the equation
// holds, so no signature falls back to a single check).
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
	for _, n := range []int{2, 4, 12, 16} {
		b.Run(fmt.Sprintf("equation/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var batch Batch
			for i := 0; i < b.N; i++ {
				batch.Reset()
				for j := 0; j < n; j++ {
					ring.VerifyBatched(&batch, nil, j, sigs[j], DomainCommit, payload)
				}
				if batch.Verify() >= 0 {
					b.Fatal("valid batch rejected")
				}
			}
		})
	}
}
