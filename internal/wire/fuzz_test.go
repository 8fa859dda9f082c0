package wire_test

import (
	"bytes"
	"testing"

	"faust/internal/version"
	"faust/internal/wire"
)

// seedMessages returns one representative of every message kind, with
// the optional sections exercised in both states where they exist.
func seedMessages() []wire.Message {
	ver := version.New(2)
	ver.V[0], ver.V[1] = 3, 5
	ver.M[0] = []byte{0xaa, 0xbb}
	ver.M[1] = nil // nil and empty digests are distinct on the wire

	sv := wire.SignedVersion{Committer: 1, Ver: ver, Sig: []byte("sig")}
	inv := wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: []byte("sigma")}
	commit := &wire.Commit{Ver: ver, CommitSig: []byte("phi"), ProofSig: []byte("psi")}
	tc := &wire.TraceCtx{Span: 0x1122334455667788, Flags: wire.TraceFlagKeep}
	copy(tc.ID[:], "trace-id-16-byte")
	tinv := inv
	tinv.Trace = tc

	return []wire.Message{
		&wire.Submit{T: 7, Inv: inv, Value: []byte("value"), DataSig: []byte("delta")},
		&wire.Submit{T: 8, Inv: inv, Value: nil, DataSig: []byte("delta"), Piggyback: commit},
		&wire.Submit{T: 9, Inv: tinv, Value: []byte("traced"), DataSig: []byte("delta")},
		&wire.Submit{T: 10, Inv: inv, Value: []byte("value"), DataSig: []byte("delta"), ProofSig: []byte("psi")},
		&wire.Submit{T: 11, Inv: tinv, DataSig: []byte("delta"), Piggyback: &wire.Commit{Ver: ver, CommitSig: []byte("phi")}, ProofSig: []byte{}},
		&wire.Reply{IsRead: false, C: 2, CVer: sv, L: []wire.Invocation{inv}, P: [][]byte{[]byte("p")}},
		&wire.Reply{IsRead: false, C: 2, CVer: sv, L: []wire.Invocation{tinv}, Trace: tc},
		&wire.Reply{IsRead: true, C: 2, CVer: sv, JVer: sv,
			Mem: wire.MemEntry{T: 4, Value: []byte("v"), DataSig: []byte("d")}},
		commit,
		&wire.Probe{From: 3},
		&wire.VersionMsg{From: 1, SV: sv},
		&wire.Failure{From: 2},
		&wire.Failure{From: 2, HasEvidence: true, EvidenceA: sv, EvidenceB: sv},
		&wire.LSSubmit{Op: wire.OpWrite, Reg: 1, Value: []byte("x"), HaveSeq: 9},
		&wire.LSReply{Records: []wire.LSRecord{{
			Seq: 1, Client: 0, Op: wire.OpWrite, Reg: 0,
			ValueHash: []byte("vh"), ChainHash: []byte("ch"), Sig: []byte("s"),
		}}, Value: []byte("val")},
		&wire.LSCommit{Record: wire.LSRecord{Seq: 2, Client: 1, Op: wire.OpRead, Reg: 0,
			ChainHash: []byte("ch2"), Sig: []byte("s2")}},
		&wire.BlobPut{ID: 1, Hash: []byte("h"), Data: []byte("blob")},
		&wire.BlobPut{ID: 5, Hash: []byte("h"), Data: []byte("blob"), Trace: tc},
		&wire.BlobAck{ID: 1, Hash: []byte("h"), OK: false, Msg: "tampered"},
		&wire.BlobAck{ID: 2, Hash: []byte("h"), OK: true, Msg: "", Trace: tc},
		&wire.BlobGet{ID: 3, Hash: []byte("h")},
		&wire.BlobGet{ID: 6, Hash: []byte("h"), Trace: tc},
		&wire.BlobData{ID: 3, Hash: []byte("h"), Found: true, Data: []byte("blob")},
		&wire.BlobData{ID: 4, Hash: []byte("h"), Found: false, Trace: tc},
	}
}

// FuzzWireDecode checks that the frame codec is strictly canonical:
// every byte string the decoder accepts re-encodes to exactly itself.
// This is a protocol property, not a convenience — SUBMIT and COMMIT
// signatures cover encoded payloads, so if two distinct byte strings
// decoded to the same message, a malicious server could swap one for
// the other behind a valid signature check. The property implies, and
// so subsumes, ordinary round-trip correctness.
func FuzzWireDecode(f *testing.F) {
	for _, m := range seedMessages() {
		f.Add(wire.Encode(m))
	}
	// Malformed seeds: empty, unknown kind, truncated, trailing byte.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00})
	f.Add(wire.Encode(&wire.Probe{From: 1})[:3])
	f.Add(append(wire.Encode(&wire.Probe{From: 1}), 0x00))
	// A SUBMIT's last byte is its flags byte when nothing optional
	// follows: an unknown flag, and the proof flag with nothing after it.
	for _, flags := range []byte{4, 2} {
		bad := wire.Encode(&wire.Submit{T: 1, DataSig: []byte("delta")})
		bad[len(bad)-1] = flags
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := wire.Decode(data)
		if err != nil {
			return // rejected inputs are out of scope
		}
		re := wire.Encode(m)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical frame:\n in: %x\nout: %x", data, re)
		}
		if n := wire.EncodedSize(m); n != len(re) {
			t.Fatalf("EncodedSize = %d, encoding is %d bytes", n, len(re))
		}
	})
}
