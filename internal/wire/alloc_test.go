package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// readReply builds a read REPLY over n clients with |L| = pending
// concurrent invocations, every digest and PROOF-signature present.
func readReply(n, pending int) *Reply {
	rng := rand.New(rand.NewSource(int64(n)))
	blob := func(size int) []byte {
		b := make([]byte, size)
		rng.Read(b)
		return b
	}
	full := func(committer int) SignedVersion {
		sv := ZeroSignedVersion(n)
		sv.Committer = committer
		for i := range sv.Ver.V {
			sv.Ver.V[i] = int64(i + 1)
			sv.Ver.M[i] = blob(32)
		}
		sv.Sig = blob(64)
		return sv
	}
	rp := &Reply{IsRead: true, C: 1, CVer: full(1), JVer: full(0),
		Mem: MemEntry{T: 7, Value: blob(256), DataSig: blob(64)}}
	for i := 0; i < pending; i++ {
		rp.L = append(rp.L, Invocation{Client: i % n, Op: OpRead, Reg: i % n, SubmitSig: blob(64)})
	}
	rp.P = make([][]byte, n)
	for i := range rp.P {
		rp.P[i] = blob(64)
	}
	return rp
}

var decodeSink Message

// TestAllocBudgetDecodeReply pins the shape of decoding: a REPLY costs a
// constant number of allocations — the message, two slices per version,
// L, P and the one copied register value — that does not grow with n,
// because every signature and digest aliases the frame. Runs without
// -race in CI (race instrumentation changes alloc counts).
func TestAllocBudgetDecodeReply(t *testing.T) {
	const budget = 8
	count := func(n int) float64 {
		frame := Encode(readReply(n, 8))
		return testing.AllocsPerRun(200, func() {
			m, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			decodeSink = m
		})
	}
	small, large := count(2), count(16)
	if large > budget {
		t.Errorf("decoding an n=16, |L|=8 REPLY costs %.0f allocations, budget is %d", large, budget)
	}
	if large != small {
		t.Errorf("decode allocations grow with n: %.0f at n=2, %.0f at n=16", small, large)
	}
}

// TestDecodeAliasesFrameButCopiesValues is the ownership contract of
// Decode seen from outside. Scribbling over the frame after decoding —
// what a caller recycling its buffer would do — shows through every
// protocol-metadata field, which is why callers must not; register
// values are copies and stay intact.
func TestDecodeAliasesFrameButCopiesValues(t *testing.T) {
	scribble := func(frame []byte) {
		for i := range frame {
			frame[i] ^= 0xFF
		}
	}
	sent := readReply(4, 2)
	frame := Encode(sent)
	m, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	rp := m.(*Reply)
	for name, b := range map[string][]byte{
		"CVer.Sig": rp.CVer.Sig, "CVer.M[0]": rp.CVer.Ver.M[0], "JVer.M[3]": rp.JVer.Ver.M[3],
		"Mem.DataSig": rp.Mem.DataSig, "L[1].SubmitSig": rp.L[1].SubmitSig, "P[2]": rp.P[2],
	} {
		if cap(b) != len(b) {
			t.Errorf("%s: cap %d exceeds len %d — an append would overwrite the next field", name, cap(b), len(b))
		}
	}
	scribble(frame)
	for name, pair := range map[string][2][]byte{
		"CVer.Sig": {rp.CVer.Sig, sent.CVer.Sig}, "CVer.M[0]": {rp.CVer.Ver.M[0], sent.CVer.Ver.M[0]},
		"JVer.M[3]": {rp.JVer.Ver.M[3], sent.JVer.Ver.M[3]}, "Mem.DataSig": {rp.Mem.DataSig, sent.Mem.DataSig},
		"L[1].SubmitSig": {rp.L[1].SubmitSig, sent.L[1].SubmitSig}, "P[2]": {rp.P[2], sent.P[2]},
	} {
		if bytes.Equal(pair[0], pair[1]) {
			t.Errorf("%s was copied out of the frame", name)
		}
	}
	if !bytes.Equal(rp.Mem.Value, sent.Mem.Value) {
		t.Error("Mem.Value aliases the frame: a retained value would pin it")
	}

	sub := &Submit{T: 1, Inv: Invocation{Op: OpWrite, SubmitSig: []byte("sigma")},
		Value: []byte("the value"), DataSig: []byte("delta")}
	frame = Encode(sub)
	if m, err = Decode(frame); err != nil {
		t.Fatal(err)
	}
	scribble(frame)
	if got := m.(*Submit); !bytes.Equal(got.Value, sub.Value) || bytes.Equal(got.DataSig, sub.DataSig) {
		t.Error("Submit: Value must be copied and DataSig must alias the frame")
	}
}
