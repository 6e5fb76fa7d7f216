package store

// Encoders for the legacy v1 row payload, which production code only
// decodes. The tests use them to produce exactly the bytes earlier
// releases wrote: v1 standalone snapshots and v1 register records.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/fd"
	"repro/internal/rel"
)

// encodeInstanceV1Payload appends the versionless v1 body: schema,
// FDs, facts as strings.
func encodeInstanceV1Payload(b *bytes.Buffer, d *rel.Database, sigma *fd.Set) {
	encodeSchemaFDs(b, sigma)
	putUvarint(b, uint64(d.Len()))
	for _, f := range d.Facts() {
		putString(b, f.Rel)
		putUvarint(b, uint64(len(f.Args)))
		for _, a := range f.Args {
			putString(b, a)
		}
	}
}

// encodeInstanceV1 writes a v1 standalone snapshot.
func encodeInstanceV1(w io.Writer, d *rel.Database, sigma *fd.Set) error {
	var b bytes.Buffer
	b.Write(instanceMagic)
	putUvarint(&b, codecV1)
	encodeInstanceV1Payload(&b, d, sigma)
	_, err := w.Write(b.Bytes())
	return err
}

// v1RegisterFrame renders a register record in the v1 layout: kind 1,
// id, name, created, v1 payload.
func v1RegisterFrame(id, name string, created time.Time, d *rel.Database, sigma *fd.Set) []byte {
	var p bytes.Buffer
	p.WriteByte(byte(opRegisterV1))
	putString(&p, id)
	putString(&p, name)
	putUvarint(&p, uint64(created.UnixNano()))
	encodeInstanceV1Payload(&p, d, sigma)
	out := make([]byte, frameHeader, frameHeader+p.Len())
	binary.LittleEndian.PutUint32(out[0:4], uint32(p.Len()))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(p.Bytes()))
	return append(out, p.Bytes()...)
}
