// Package blobfleet turns the single blob store behind the bulk channel
// into a fleet of cheap, untrusted, individually unreliable backends.
//
// The paper's trust model makes replication uniquely easy here: every
// blob is content-addressed and the reader (internal/kv) verifies the
// hash of everything it fetches, so ANY replica — however untrusted —
// is exactly as good as the primary, and a faulty or byzantine backend
// is detected rather than trusted. The fleet exploits that:
//
//   - Failover composes an ordered list of transport.BlobStore backends.
//     Writes are replicated to the first W alive backends; reads fan
//     through alive backends in order and the first verified answer
//     wins. A blob served by a secondary is written back to the primary
//     (read repair), so a recovered primary converges without an
//     explicit rebuild.
//   - Each backend carries an EMA aliveness score (the wal-g failover
//     design): every operation result feeds the score, a backend whose
//     score sinks below the dead threshold leaves the rotation (with a
//     degraded-mode event in the protocol event log), and a background
//     prober resurrects it when it answers again.
//   - Transient failures are retried per backend with capped exponential
//     backoff plus jitter, under a per-operation deadline.
//   - FaultyBlobs wraps any backend with deterministic, seeded fault
//     injection — errors, added latency, hangs, short reads, bit-flipped
//     payloads — usable from tests and the faust-server -blob-faults
//     flag.
//
// Because Failover itself knows the address IS the content hash, it
// verifies SHA-256-sized addresses on every read and skips byzantine
// replicas instead of propagating their garbage; the KV layer's own
// end-to-end check remains the last line of defense.
package blobfleet

import "faust/internal/transport"

// Backend is one member of a fleet: a store plus the name it reports
// under in metrics, events and status listings.
type Backend struct {
	Name  string
	Store transport.BlobStore
}
