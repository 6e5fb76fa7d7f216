package store

// Record framing. Each record is
//
//	[uint32 LE payload length][uint32 LE IEEE-CRC32 of payload][payload]
//
// and the payload is
//
//	[kind byte][uvarint-length id][kind-specific fields]
//
// with the fields
//
//	register:    name | uvarint created (unix ns) | zero padding to a
//	             4-byte frame offset | v2 instance payload (codec_v2.go)
//	unregister:  none
//	insert-fact: relation | uvarint arity | arguments
//	delete-fact: uvarint index
//
// The same frames are the WAL, the body of a store snapshot, and the
// replication feed. A crash mid-append leaves a short or
// checksum-failing tail; replay stops at the first such record and the
// store truncates the file back to the last complete one, so every
// acknowledged record before the tear survives and nothing
// half-written is ever applied.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/fd"
	"repro/internal/rel"
)

// OpKind tags a record.
type OpKind byte

const (
	// opRegisterV1 is the legacy register record, its instance in the
	// v1 row payload. It is decoded (as OpRegister), never written.
	opRegisterV1 OpKind = iota + 1
	OpUnregister
	OpInsertFact
	OpDeleteFact
	// OpRegister embeds the instance as a v2 payload.
	OpRegister
)

func (k OpKind) String() string {
	switch k {
	case OpRegister, opRegisterV1:
		return "register"
	case OpUnregister:
		return "unregister"
	case OpInsertFact:
		return "insert-fact"
	case OpDeleteFact:
		return "delete-fact"
	default:
		return fmt.Sprintf("OpKind(%d)", byte(k))
	}
}

// Record is one decoded frame.
type Record struct {
	Kind OpKind
	ID   string
	// OpRegister only:
	Name    string
	Created time.Time
	DB      *rel.Database
	Sigma   *fd.Set
	// OpInsertFact only:
	Fact rel.Fact
	// OpDeleteFact only: the fact's index in the instance's sorted fact
	// order before the delete.
	Index int
}

// frameHeader is the length+CRC prefix of every frame.
const frameHeader = 8

// Frame renders the record as one CRC-framed record: the bytes the WAL
// journals and the replication feed ships.
func (r Record) Frame() []byte {
	var b bytes.Buffer
	b.Write(make([]byte, frameHeader)) // filled in below
	b.WriteByte(byte(r.Kind))
	putString(&b, r.ID)
	switch r.Kind {
	case OpRegister:
		putString(&b, r.Name)
		putUvarint(&b, uint64(r.Created.UnixNano()))
		pad4(&b)
		encodeInstanceV2(&b, r.DB, r.Sigma)
	case OpInsertFact:
		putString(&b, r.Fact.Rel)
		putUvarint(&b, uint64(len(r.Fact.Args)))
		for _, a := range r.Fact.Args {
			putString(&b, a)
		}
	case OpDeleteFact:
		putUvarint(&b, uint64(r.Index))
	}
	out := b.Bytes()
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(out)-frameHeader))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(out[frameHeader:]))
	return out
}

// decodeRecord parses a frame payload. A register record's database
// aliases payload (decodeInstanceV2), which must start 4-aligned
// relative to its frame and be owned by the record alone.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("store: empty record payload")
	}
	rec := Record{Kind: OpKind(payload[0])}
	rd := reader{bytes.NewReader(payload[1:])}
	var err error
	if rec.ID, err = rd.string_(); err != nil {
		return Record{}, fmt.Errorf("store: record id: %w", err)
	}
	switch rec.Kind {
	case OpRegister, opRegisterV1:
		if rec.Name, err = rd.string_(); err != nil {
			return Record{}, err
		}
		created, err := rd.uvarint()
		if err != nil {
			return Record{}, err
		}
		rec.Created = time.Unix(0, int64(created)).UTC()
		if rec.Kind == opRegisterV1 {
			rec.Kind = OpRegister
			rec.DB, rec.Sigma, err = decodeInstanceV1(rd)
		} else {
			// The frame header is 8 bytes, so a 4-byte payload offset is a
			// 4-byte frame offset, the v2 section's alignment base.
			at := (len(payload) - rd.r.Len() + 3) &^ 3
			if at > len(payload) {
				return Record{}, fmt.Errorf("store: register record %q ends before its instance", rec.ID)
			}
			v2 := payload[at:]
			rec.DB, rec.Sigma, err = decodeInstanceV2(v2, reader{bytes.NewReader(v2)})
		}
		if err != nil {
			return Record{}, err
		}
	case OpUnregister:
	case OpInsertFact:
		relName, err := rd.string_()
		if err != nil {
			return Record{}, err
		}
		args, err := rd.strings("argument")
		if err != nil {
			return Record{}, err
		}
		rec.Fact = rel.NewFact(relName, args...)
	case OpDeleteFact:
		idx, err := rd.uvarint()
		if err != nil {
			return Record{}, err
		}
		rec.Index = int(idx)
	default:
		return Record{}, fmt.Errorf("store: unknown record kind %d", payload[0])
	}
	return rec, nil
}

// nextFrame splits the first frame off b, checking its length and CRC.
func nextFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) < frameHeader {
		return nil, nil, fmt.Errorf("store: torn frame header (%d of %d bytes)", len(b), frameHeader)
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if uint64(n) > uint64(len(b)-frameHeader) {
		return nil, nil, fmt.Errorf("store: torn frame: %d-byte payload, %d bytes left", n, len(b)-frameHeader)
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, nil, fmt.Errorf("store: frame checksum mismatch")
	}
	return payload, b[frameHeader+int(n):], nil
}

// DecodeFrames decodes a run of frames, as the replication feed ships
// them. A torn, checksum-failing or undecodable frame fails the whole
// run. A register record's database aliases b, so b must start 4-aligned
// (any Go allocation does) and belong to that record alone.
func DecodeFrames(b []byte) ([]Record, error) {
	var out []Record
	for len(b) > 0 {
		payload, rest, err := nextFrame(b)
		if err != nil {
			return nil, err
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
		b = rest
	}
	return out, nil
}

// owned copies a payload read from a file into a buffer of its own
// exact size: a register record's columns alias it, and must pin
// neither the rest of the file nor read-ahead slack.
func owned(payload []byte) []byte {
	return append(make([]byte, 0, len(payload)), payload...)
}

// replayResult is what scanning a WAL yields: the complete records, the
// offset just past the last complete record (where appends resume and
// any torn tail is truncated), and whether a tear was found.
type replayResult struct {
	records []Record
	goodLen int64
	torn    bool
}

// scanWAL decodes a segment's frames up to its end or the first
// incomplete or corrupt one. A torn tail is the expected crash
// signature, not an error. A record that passes its checksum but does
// not decode is real corruption (or a future codec): replay stops
// before it like a tear so everything prior still replays.
func scanWAL(raw []byte) replayResult {
	var res replayResult
	for rest := raw; len(rest) > 0; {
		payload, next, err := nextFrame(rest)
		var rec Record
		if err == nil {
			rec, err = decodeRecord(owned(payload))
		}
		if err != nil {
			res.torn = true
			break
		}
		res.records = append(res.records, rec)
		res.goodLen += int64(len(rest) - len(next))
		rest = next
	}
	return res
}
