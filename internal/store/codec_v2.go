package store

// The columnar v2 instance payload. The layout is the in-memory
// dictionary-encoded representation of rel.Database:
//
//	varint block: schema | FDs | nSyms | symBlobLen | nFacts |
//	              argsLen | slotsLen
//	zero padding to the next 4-byte offset
//	symOffs: (nSyms+1) × u32 LE   cumulative byte offsets into the blob
//	symBlob: symBlobLen bytes     symbol strings, concatenated in id order
//	zero padding to the next 4-byte offset
//	rels:  nFacts × u32 LE        relation-id column
//	offs:  (nFacts+1) × u32 LE    argument-offset column
//	args:  argsLen × u32 LE       flattened argument-id column
//	slots: slotsLen × u32 LE      skipped; see below
//
// slotsLen is written as 0, with no section after args. Payloads
// written by earlier releases carry a fact hash table there; a database
// needs none, since it finds a fact by binary search over its sorted
// columns, so the decoder bounds-checks that section and skips it. A
// release that reads the table cannot read a payload without one.
//
// Padding aligns to 4-byte offsets from a base: the start of a
// standalone snapshot file (magic included), or the start of a record
// frame, in which a register record pads to a 4-byte offset before its
// v2 bytes (wal.go). Because the integer sections are exactly the
// arrays the database holds at runtime (stored little-endian,
// 4-aligned), a little-endian host decodes them with zero copies — the
// columns alias the input buffer. Booting or seeding a replica
// therefore costs the symbol table (O(distinct symbols)) plus
// validation scans, not a per-fact string decode: on a memory-mapped
// file the column bytes are only faulted in as pages are touched.
// Big-endian or misaligned hosts fall back to a copying decode of the
// same bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/fd"
	"repro/internal/rel"
)

// hostLittleEndian reports whether native integer layout matches the
// file format, enabling the zero-copy column views.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func pad4(b *bytes.Buffer) {
	for b.Len()%4 != 0 {
		b.WriteByte(0)
	}
}

func putU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func putInt32s(b *bytes.Buffer, xs []int32) {
	if hostLittleEndian && len(xs) > 0 {
		b.Write(unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), 4*len(xs)))
		return
	}
	for _, x := range xs {
		putU32(b, uint32(x))
	}
}

// int32Section returns n little-endian int32s starting at absolute
// offset off — a zero-copy view into raw when the host layout matches,
// a converted copy otherwise. The caller has bounds-checked the range.
func int32Section(raw []byte, off, n int) []int32 {
	if n == 0 {
		return nil
	}
	b := raw[off : off+4*n]
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// encodeInstanceV2 appends the columnar body. b.Len() is the offset
// from the alignment base, so b must hold everything from that base:
// a whole standalone snapshot, or a whole frame.
func encodeInstanceV2(b *bytes.Buffer, d *rel.Database, sigma *fd.Set) {
	encodeSchemaFDs(b, sigma)
	syms, relsCol, offsCol, argsCol := d.Columns()
	strs := syms.Strings()
	blobLen := 0
	for _, s := range strs {
		blobLen += len(s)
	}
	b.Grow(4*(len(strs)+1+len(relsCol)+len(offsCol)+len(argsCol)) + blobLen + 64)
	putUvarint(b, uint64(len(strs)))
	putUvarint(b, uint64(blobLen))
	putUvarint(b, uint64(len(relsCol)))
	putUvarint(b, uint64(len(argsCol)))
	putUvarint(b, 0) // slotsLen
	pad4(b)
	off := uint32(0)
	putU32(b, 0)
	for _, s := range strs {
		off += uint32(len(s))
		putU32(b, off)
	}
	for _, s := range strs {
		b.WriteString(s)
	}
	pad4(b)
	putInt32s(b, relsCol)
	putInt32s(b, offsCol)
	putInt32s(b, argsCol)
}

// decodeInstanceV2 decodes the columnar body. raw starts at a 4-byte
// offset from the alignment base and runs to the end of the payload;
// rd reads raw from the payload's first byte. On little-endian hosts the returned
// database's integer columns alias raw — callers that unmap or reuse
// the buffer must keep it alive for the database's lifetime (see
// MapInstance), and should hand over a buffer the database may pin
// whole: no slack, no other instance's bytes.
func decodeInstanceV2(raw []byte, rd reader) (*rel.Database, *fd.Set, error) {
	sigma, err := decodeSchemaFDs(rd)
	if err != nil {
		return nil, nil, err
	}
	nSyms, err := rd.count("symbol", 1<<28)
	if err != nil {
		return nil, nil, err
	}
	blobLen, err := rd.count("symbol blob byte", 1<<30)
	if err != nil {
		return nil, nil, err
	}
	nFacts, err := rd.count("fact", 1<<28)
	if err != nil {
		return nil, nil, err
	}
	argsLen, err := rd.count("argument id", 1<<30)
	if err != nil {
		return nil, nil, err
	}
	slotsLen, err := rd.count("lookup slot", 1<<30)
	if err != nil {
		return nil, nil, err
	}
	pos := len(raw) - rd.r.Len()
	if rem := pos % 4; rem != 0 {
		pos += 4 - rem
	}
	// Walk the fixed-width sections with one running bounds check.
	take := func(n int) (int, error) {
		start := pos
		if n < 0 || start > len(raw) || n > len(raw)-start {
			return 0, fmt.Errorf("store: columnar section of %d bytes exceeds snapshot size %d", n, len(raw))
		}
		pos += n
		return start, nil
	}
	symOffsAt, err := take(4 * (nSyms + 1))
	if err != nil {
		return nil, nil, err
	}
	blobAt, err := take(blobLen)
	if err != nil {
		return nil, nil, err
	}
	if rem := pos % 4; rem != 0 {
		if _, err := take(4 - rem); err != nil {
			return nil, nil, err
		}
	}
	relsAt, err := take(4 * nFacts)
	if err != nil {
		return nil, nil, err
	}
	offsAt, err := take(4 * (nFacts + 1))
	if err != nil {
		return nil, nil, err
	}
	argsAt, err := take(4 * argsLen)
	if err != nil {
		return nil, nil, err
	}
	if _, err := take(4 * slotsLen); err != nil {
		return nil, nil, err
	}

	symOffs := int32Section(raw, symOffsAt, nSyms+1)
	if symOffs[0] != 0 || int(symOffs[nSyms]) != blobLen {
		return nil, nil, fmt.Errorf("store: symbol offsets do not cover the %d-byte blob", blobLen)
	}
	strs := make([]string, nSyms)
	for i := range strs {
		a, z := symOffs[i], symOffs[i+1]
		if a < 0 || z < a || int(z) > blobLen {
			return nil, nil, fmt.Errorf("store: symbol %d has corrupt blob offsets [%d, %d)", i, a, z)
		}
		strs[i] = string(raw[blobAt+int(a) : blobAt+int(z)])
	}
	syms, err := rel.NewSymbolsFromStrings(strs)
	if err != nil {
		return nil, nil, fmt.Errorf("store: columnar snapshot: %w", err)
	}
	db, err := rel.NewDatabaseFromParts(syms,
		int32Section(raw, relsAt, nFacts),
		int32Section(raw, offsAt, nFacts+1),
		int32Section(raw, argsAt, argsLen))
	if err != nil {
		return nil, nil, fmt.Errorf("store: columnar snapshot: %w", err)
	}
	if err := fitSchema(db, sigma); err != nil {
		return nil, nil, err
	}
	return db, sigma, nil
}
