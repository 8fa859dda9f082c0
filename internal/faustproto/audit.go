package faustproto

import (
	"fmt"

	"faust/internal/crypto"
	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"
)

// AuditReport is the outcome of an offline audit over committed versions.
type AuditReport struct {
	OK     bool
	Reason string
	// A and B carry the offending version pair when OK is false because
	// of a fork: cryptographic evidence of server misbehavior.
	A, B wire.SignedVersion
}

// Audit performs the offline auditor's global consistency check: given
// signed versions collected from any set of clients (e.g. each client's
// MaxVersion), it verifies every signature and checks that all versions
// are pairwise comparable. With a correct server all committed versions
// lie on one chain; any incomparable pair proves a forking attack — the
// same evidence FAUST's online exchange produces, but usable post hoc.
func Audit(ring *crypto.Keyring, versions []wire.SignedVersion) AuditReport {
	valid := make([]wire.SignedVersion, 0, len(versions))
	for i, sv := range versions {
		if sv.Ver.IsZero() {
			continue
		}
		if !ustor.VerifyVersion(ring, nil, sv) {
			return AuditReport{Reason: fmt.Sprintf("version %d (committer %d) carries no valid COMMIT-signature", i, sv.Committer)}
		}
		valid = append(valid, sv)
	}
	for i := 0; i < len(valid); i++ {
		for j := i + 1; j < len(valid); j++ {
			if !version.Comparable(valid[i].Ver, valid[j].Ver) {
				return AuditReport{
					Reason: "incomparable versions: the server mounted a forking attack",
					A:      valid[i],
					B:      valid[j],
				}
			}
		}
	}
	return AuditReport{OK: true}
}
