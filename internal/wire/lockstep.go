package wire

// Lock-step protocol messages. The lock-step baseline (package lockstep)
// is a fork-linearizable protocol in the style of SUNDR and of the
// protocols in [5] (Cachin–Shelat–Shraer): the server maintains one
// globally ordered log of operations, each secured by a hash chain and the
// author's signature, and admits ONE operation at a time. The REPLY to an
// operation is deferred until the previous operation commits, which is
// what makes the protocol blocking — the behavior the paper proves
// unavoidable for fork-linearizability and which USTOR eliminates.

// LSRecord is one entry of the global log.
type LSRecord struct {
	Seq       int64
	Client    int
	Op        OpCode
	Reg       int
	ValueHash []byte // hash of the written value; nil for reads
	ChainHash []byte // hash chain value after appending this record
	Sig       []byte // author's signature over ChainHash
}

// Clone returns a deep copy.
func (r LSRecord) Clone() LSRecord {
	c := r
	c.ValueHash = cloneBytes(r.ValueHash)
	c.ChainHash = cloneBytes(r.ChainHash)
	c.Sig = cloneBytes(r.Sig)
	return c
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// LSSubmit announces an operation to the lock-step server. HaveSeq tells
// the server which log prefix the client already holds.
type LSSubmit struct {
	Op      OpCode
	Reg     int
	Value   []byte // written value; nil for reads
	HaveSeq int64
}

// LSReply delivers the log suffix the client is missing and, for reads,
// the current register value. It is sent only when the operation becomes
// the single active operation (lock-step admission).
type LSReply struct {
	Records []LSRecord
	Value   []byte // register value for reads; nil otherwise/bottom
}

// LSCommit carries the client's own signed record, appended to the log by
// the server, which then admits the next operation.
type LSCommit struct {
	Record LSRecord
}

// MsgKind values continue after the FAUST messages.
const (
	KindLSSubmit Kind = iota + 7
	KindLSReply
	KindLSCommit
)

// MsgKind implementations.
func (*LSSubmit) MsgKind() Kind { return KindLSSubmit }
func (*LSReply) MsgKind() Kind  { return KindLSReply }
func (*LSCommit) MsgKind() Kind { return KindLSCommit }

var (
	_ Message = (*LSSubmit)(nil)
	_ Message = (*LSReply)(nil)
	_ Message = (*LSCommit)(nil)
)

func appendLSRecord(buf []byte, r LSRecord) []byte {
	buf = appendI64(buf, r.Seq)
	buf = appendU32(buf, uint32(r.Client))
	buf = appendU8(buf, uint8(r.Op))
	buf = appendU32(buf, uint32(r.Reg))
	buf = appendBytes(buf, r.ValueHash)
	buf = appendBytes(buf, r.ChainHash)
	return appendBytes(buf, r.Sig)
}

func (r *reader) lsRecord() LSRecord {
	var rec LSRecord
	rec.Seq = r.i64()
	rec.Client = int(r.u32())
	rec.Op = OpCode(r.u8())
	rec.Reg = int(r.u32())
	rec.ValueHash = r.bytes()
	rec.ChainHash = r.bytes()
	rec.Sig = r.bytes()
	return rec
}

func (s *LSSubmit) encodeBody(buf []byte) []byte {
	buf = appendU8(buf, uint8(s.Op))
	buf = appendU32(buf, uint32(s.Reg))
	buf = appendBytes(buf, s.Value)
	return appendI64(buf, s.HaveSeq)
}

func (rp *LSReply) encodeBody(buf []byte) []byte {
	buf = appendU32(buf, uint32(len(rp.Records)))
	for _, rec := range rp.Records {
		buf = appendLSRecord(buf, rec)
	}
	return appendBytes(buf, rp.Value)
}

func (c *LSCommit) encodeBody(buf []byte) []byte {
	return appendLSRecord(buf, c.Record)
}

// ChainPayload is the byte string whose hash extends the lock-step chain
// for a record: seq || client || opcode || reg || valuehash.
func ChainPayload(seq int64, client int, op OpCode, reg int, valueHash []byte) []byte {
	buf := make([]byte, 0, 8+4+1+4+1+len(valueHash))
	buf = appendI64(buf, seq)
	buf = appendU32(buf, uint32(client))
	buf = appendU8(buf, uint8(op))
	buf = appendU32(buf, uint32(reg))
	return appendBytes(buf, valueHash)
}

// decodeLockstep extends Decode for the lock-step kinds; called from
// Decode.
func decodeLockstep(kind Kind, r *reader) Message {
	switch kind {
	case KindLSSubmit:
		s := &LSSubmit{}
		s.Op = OpCode(r.u8())
		s.Reg = int(r.u32())
		s.Value = r.value()
		s.HaveSeq = r.i64()
		return s
	case KindLSReply:
		rp := &LSReply{}
		n := r.u32()
		if r.err != nil || n > maxVectorLen {
			r.fail()
			return nil
		}
		rp.Records = make([]LSRecord, n)
		for i := range rp.Records {
			rp.Records[i] = r.lsRecord()
		}
		rp.Value = r.value()
		return rp
	case KindLSCommit:
		c := &LSCommit{}
		c.Record = r.lsRecord()
		return c
	default:
		return nil
	}
}
