package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"faust/internal/crypto"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/version"
	"faust/internal/wire"
)

// Before SUBMITs carried the PROOF-signature of the client's previous
// operation, clients signed each SUBMIT as a (SUBMIT, DATA) pair and each
// COMMIT as a (COMMIT, PROOF) pair, and the server kept P[i] from the
// COMMIT. legacyLog writes server input the way those clients did, one
// operation at a time, so each operation's version extends the last
// committed one by that operation alone.
type legacyLog struct {
	signers []*crypto.Signer
	cur     version.Version // the last committed version
	last    int             // its committer
	xbar    [][]byte        // per client: hash of its last written value
	recs    []Record
	pending []*wire.Commit // per client: a COMMIT deferred onto the next SUBMIT
}

func newLegacyLog(n int, signers []*crypto.Signer) *legacyLog {
	return &legacyLog{signers: signers, cur: version.New(n), xbar: make([][]byte, n), pending: make([]*wire.Commit, n)}
}

// op records client i's SUBMIT of an operation on register reg (a write
// of value when op is OpWrite) and its COMMIT. With piggyback the COMMIT
// rides on i's next SUBMIT, which must be the next operation; otherwise
// it follows at once.
func (l *legacyLog) op(i int, op wire.OpCode, reg int, value []byte, piggyback bool) {
	s := l.signers[i]
	ver := l.cur.Clone()
	ver.V[i]++
	ver.M[i] = version.DigestStep(l.cur.M[l.last], i)
	t := ver.V[i]
	if op == wire.OpWrite {
		l.xbar[i] = crypto.HashOrNil(value)
	}
	sigma, delta := s.SignPair(nil, crypto.DomainSubmit, wire.SubmitPayload(op, reg, t, nil),
		crypto.DomainData, wire.AppendDataPayload(nil, t, l.xbar[i]))
	l.recs = append(l.recs, Record{From: i, Msg: &wire.Submit{T: t,
		Inv:   wire.Invocation{Client: i, Op: op, Reg: reg, SubmitSig: sigma},
		Value: value, DataSig: delta, Piggyback: l.pending[i]}})
	l.pending[i] = nil
	phi, psi := s.SignPair(nil, crypto.DomainCommit, wire.CommitPayload(ver), crypto.DomainProof, wire.ProofPayload(ver.M[i]))
	commit := &wire.Commit{Ver: ver, CommitSig: phi, ProofSig: psi}
	if piggyback {
		l.pending[i] = commit
	} else {
		l.recs = append(l.recs, Record{From: i, Msg: commit})
	}
	l.cur, l.last = ver, i
}

// The parent encoding, written out field by field: a SUBMIT ends in a
// piggyback bool, 0 or 1, where the flags byte is now.

func legacyBytes(b, v []byte) []byte {
	if v == nil {
		return binary.BigEndian.AppendUint32(b, ^uint32(0))
	}
	return append(binary.BigEndian.AppendUint32(b, uint32(len(v))), v...)
}

func legacyCommitBody(b []byte, c *wire.Commit) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(c.Ver.V)))
	for _, t := range c.Ver.V {
		b = binary.BigEndian.AppendUint64(b, uint64(t))
	}
	for _, d := range c.Ver.M {
		b = legacyBytes(b, d)
	}
	return legacyBytes(legacyBytes(b, c.CommitSig), c.ProofSig)
}

func legacyRecord(rec Record) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(rec.From))
	switch m := rec.Msg.(type) {
	case *wire.Submit:
		b = append(b, byte(wire.KindSubmit))
		b = binary.BigEndian.AppendUint64(b, uint64(m.T))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Inv.Client))
		b = append(b, byte(m.Inv.Op))
		b = binary.BigEndian.AppendUint32(b, uint32(m.Inv.Reg))
		b = append(legacyBytes(b, m.Inv.SubmitSig), 0) // untraced
		b = legacyBytes(legacyBytes(b, m.Value), m.DataSig)
		if m.Piggyback == nil {
			return append(b, 0)
		}
		return legacyCommitBody(append(b, 1), m.Piggyback)
	case *wire.Commit:
		return legacyCommitBody(append(b, byte(wire.KindCommit)), m)
	}
	panic("not a record")
}

func frame(b, payload []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// TestLegacyLogReplays: a snapshot and WAL in the parent format recover,
// every record decodes and re-encodes to its own bytes, and new clients
// keep operating on the recovered state, their line 41 check accepting
// the legacy PROOF-signature still in P.
func TestLegacyLogReplays(t *testing.T) {
	const n = 4 // clients 0 and 1 wrote the old log; 2 and 3 are new
	ring, signers := crypto.NewTestKeyring(n, 33)
	lg := newLegacyLog(n, signers)
	lg.op(0, wire.OpWrite, 0, []byte("a"), false)
	snapped := len(lg.recs) // the snapshot holds the state up to here
	lg.op(0, wire.OpWrite, 0, []byte("b"), false)
	lg.op(1, wire.OpRead, 0, nil, true)
	lg.op(1, wire.OpWrite, 1, []byte("c"), true) // carries the read's COMMIT and stays in L

	payloads := make([][]byte, len(lg.recs))
	for k, rec := range lg.recs {
		payloads[k] = legacyRecord(rec)
		got, err := DecodeRecord(append([]byte(nil), payloads[k]...))
		if err != nil {
			t.Fatalf("record %d: %v", k, err)
		}
		re := wire.AppendEncode(binary.BigEndian.AppendUint32(nil, uint32(got.From)), got.Msg)
		if !bytes.Equal(re, payloads[k]) {
			t.Fatalf("record %d re-encodes to other bytes:\n in: %x\nout: %x", k, payloads[k], re)
		}
	}
	shadow := ustor.NewServer(n)
	apply := func(recs []Record) {
		for _, rec := range recs {
			if s, ok := rec.Msg.(*wire.Submit); ok {
				shadow.HandleSubmit(context.Background(), rec.From, s)
			} else {
				shadow.HandleCommit(context.Background(), rec.From, rec.Msg.(*wire.Commit))
			}
		}
	}
	apply(lg.recs[:snapped])
	snap := shadow.ExportState()
	if st, err := wire.DecodeServerState(append([]byte(nil), snap...)); err != nil || !bytes.Equal(wire.EncodeServerState(st), snap) {
		t.Fatalf("snapshot does not re-encode to its own bytes (%v)", err)
	}
	apply(lg.recs[snapped:])

	dir := t.TempDir()
	wal := []byte(walMagic)
	for _, p := range payloads[snapped:] {
		wal = frame(wal, p)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(1)), frame([]byte(snapMagic), snap), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName(1)), wal, 0o600); err != nil {
		t.Fatal(err)
	}
	open := func() *Persistent {
		t.Helper()
		backend, err := OpenFile(dir, FileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := Open(ustor.NewServer(n), backend, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	ps := open()
	if fromSnap, replayed := ps.Recovered(); !fromSnap || replayed != len(lg.recs)-snapped {
		t.Fatalf("recovered from snapshot %v with %d records, want true with %d", fromSnap, replayed, len(lg.recs)-snapped)
	}
	if !bytes.Equal(ps.ExportState(), shadow.ExportState()) {
		t.Fatal("recovered state differs from the state the records build")
	}
	st, err := wire.DecodeServerState(ps.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	legacyPsi := lg.recs[len(lg.recs)-1].Msg.(*wire.Submit).Piggyback.ProofSig
	if len(st.L) != 1 || st.L[0].Client != 1 || len(st.P[1]) != crypto.PairSigSize || !bytes.Equal(st.P[1], legacyPsi) {
		t.Fatalf("scenario is stale: |L| = %d, |P[1]| = %d", len(st.L), len(st.P[1]))
	}

	nw := transport.NewNetwork(n, ps)
	c2 := ustor.NewClient(2, ring, signers[2], nw.ClientLink(2))
	c3 := ustor.NewClient(3, ring, signers[3], nw.ClientLink(3), ustor.WithCommitPiggyback())
	// c2's first write shows client 1's write in L: line 41 checks the
	// legacy psi in P[1], line 43 the legacy sigma, line 35 the legacy phi
	// in SVER[1].
	if err := c2.Write([]byte("d")); err != nil {
		t.Fatalf("write on the recovered state: %v", err)
	}
	for _, rd := range []struct {
		c    *ustor.Client
		j    int
		want string
	}{{c3, 0, "b"}, {c3, 1, "c"}, {c2, 1, "c"}, {c3, 2, "d"}} {
		if v, err := rd.c.Read(rd.j); err != nil || string(v) != rd.want {
			t.Fatalf("client %d reads register %d: %q, %v; want %q", rd.c.ID(), rd.j, v, err, rd.want)
		}
	}
	if err := c2.Write([]byte("e")); err != nil {
		t.Fatal(err)
	}
	if v, err := c3.Read(2); err != nil || string(v) != "e" {
		t.Fatalf("read after a new-format write: %q, %v", v, err)
	}
	nw.Stop()

	// The log now holds parent-format records followed by new ones, and
	// still recovers exactly.
	want := ps.ExportState()
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	ps = open()
	defer ps.Close()
	if !bytes.Equal(ps.ExportState(), want) {
		t.Fatal("the mixed log recovers a different state")
	}
}
