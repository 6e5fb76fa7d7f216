// Package store defines every byte a backend writes or sends, and is
// the durable instance store behind the OCQA service. There is one
// instance encoding, the columnar v2 payload of codec_v2.go, and one
// mutation encoding, the CRC-framed record of wal.go:
//
//   - a standalone snapshot (Instance.Snapshot) is a v2 payload behind a
//     magic and version;
//   - the write-ahead log journals every registry operation (register,
//     unregister, insert-fact, delete-fact) as framed records, a
//     register record embedding the instance's v2 payload;
//   - a store snapshot is a run of register records;
//   - the replication feed ships the same frames: the owner's journalled
//     insert/delete frames for an incremental sync, one register frame
//     for a full one.
//
// The legacy v1 row payload (in v1 standalone snapshots, the register
// records and version-2 snapshots of earlier releases) is decoded,
// never written.
//
// Boot replays snapshot-then-WAL; replay is crash-safe — a torn or
// corrupt tail record is detected by its checksum and the log is
// truncated back to the last complete record. Periodic compaction
// rotates the WAL to a fresh generation-named segment, folds the state
// into a snapshot stamped with that generation (written atomically via
// temp-file + rename), and deletes the retired segments; boot never
// replays a segment older than the snapshot's stamp, so a crash at any
// point of compaction leaves a consistent snapshot/WAL pair.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/fd"
	"repro/internal/rel"
)

// Instance payload versions of a standalone snapshot: v1 is the legacy
// row-oriented varint encoding (one string per relation name and
// argument occurrence), decoded only; v2 is the columnar encoding of
// codec_v2.go.
const (
	codecV1 = 1
	codecV2 = 2
)

// instanceMagic introduces a standalone instance snapshot (the facade's
// Instance.Snapshot writes exactly one of these).
var instanceMagic = []byte("OCQI")

// --- primitive encoders ---------------------------------------------------

func putUvarint(b *bytes.Buffer, n uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], n)])
}

func putString(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func putInts(b *bytes.Buffer, xs []int) {
	putUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		putUvarint(b, uint64(x))
	}
}

type reader struct {
	r *bytes.Reader
}

func (rd reader) uvarint() (uint64, error) {
	return binary.ReadUvarint(rd.r)
}

func (rd reader) count(what string, limit uint64) (int, error) {
	n, err := rd.uvarint()
	if err != nil {
		return 0, fmt.Errorf("store: reading %s count: %w", what, err)
	}
	if n > limit {
		return 0, fmt.Errorf("store: %s count %d exceeds sanity limit %d", what, n, limit)
	}
	// Every counted element takes at least one of the remaining bytes,
	// so a corrupt count fails here instead of sizing an allocation.
	if n > uint64(rd.r.Len()) {
		return 0, fmt.Errorf("store: %s count %d exceeds the %d bytes left", what, n, rd.r.Len())
	}
	return int(n), nil
}

func (rd reader) string_() (string, error) {
	n, err := rd.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(rd.r.Len()) {
		return "", fmt.Errorf("store: string length %d exceeds remaining %d bytes", n, rd.r.Len())
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (rd reader) ints() ([]int, error) {
	n, err := rd.count("attribute", 1<<16)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		v, err := rd.uvarint()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

// strings reads a count-prefixed run of strings.
func (rd reader) strings(what string) ([]string, error) {
	n, err := rd.count(what, 1<<16)
	if err != nil {
		return nil, err
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = rd.string_(); err != nil {
			return nil, fmt.Errorf("store: %s: %w", what, err)
		}
	}
	return out, nil
}

// --- instance payload -----------------------------------------------------

// encodeSchemaFDs appends the schema and FD blocks shared by both
// payload versions.
func encodeSchemaFDs(b *bytes.Buffer, sigma *fd.Set) {
	sch := sigma.Schema()
	rels := sch.Relations()
	putUvarint(b, uint64(len(rels)))
	for _, r := range rels {
		putString(b, r.Name)
		putUvarint(b, uint64(len(r.Attrs)))
		for _, a := range r.Attrs {
			putString(b, a)
		}
	}
	fds := sigma.FDs()
	putUvarint(b, uint64(len(fds)))
	for _, f := range fds {
		putString(b, f.Rel)
		putInts(b, f.LHS)
		putInts(b, f.RHS)
	}
}

// decodeSchemaFDs reads the schema and FD blocks shared by both
// payload versions.
func decodeSchemaFDs(rd reader) (*fd.Set, error) {
	nRels, err := rd.count("relation", 1<<20)
	if err != nil {
		return nil, err
	}
	rels := make([]rel.Relation, 0, nRels)
	for i := 0; i < nRels; i++ {
		name, err := rd.string_()
		if err != nil {
			return nil, fmt.Errorf("store: relation name: %w", err)
		}
		attrs, err := rd.strings("attribute")
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel.Relation{Name: name, Attrs: attrs})
	}
	sch, err := rel.NewSchema(rels...)
	if err != nil {
		return nil, fmt.Errorf("store: decoded schema invalid: %w", err)
	}
	nFDs, err := rd.count("FD", 1<<20)
	if err != nil {
		return nil, err
	}
	fds := make([]fd.FD, 0, nFDs)
	for i := 0; i < nFDs; i++ {
		relName, err := rd.string_()
		if err != nil {
			return nil, err
		}
		lhs, err := rd.ints()
		if err != nil {
			return nil, err
		}
		rhs, err := rd.ints()
		if err != nil {
			return nil, err
		}
		fds = append(fds, fd.New(relName, lhs, rhs))
	}
	sigma, err := fd.NewSet(sch, fds...)
	if err != nil {
		return nil, fmt.Errorf("store: decoded FD set invalid: %w", err)
	}
	return sigma, nil
}

// fitSchema rejects a decoded database holding a fact whose relation is
// not in sigma's schema, or whose arity is not the relation's: the
// conflict and query layers index arguments by schema position, so
// such a fact would panic them.
func fitSchema(d *rel.Database, sigma *fd.Set) error {
	covered := 0
	for _, r := range sigma.Schema().Relations() {
		lo, hi := d.RelRange(r.Name)
		for i := lo; i < hi; i++ {
			if d.Arity(i) != r.Arity() {
				return fmt.Errorf("store: fact %v does not fit relation %v", d.Fact(i), r)
			}
		}
		covered += hi - lo
	}
	if covered != d.Len() {
		return fmt.Errorf("store: %d of %d facts belong to no relation of the schema", d.Len()-covered, d.Len())
	}
	return nil
}

// decodeInstanceV1 reads the legacy row-oriented body: schema, FDs,
// then every fact as strings.
func decodeInstanceV1(rd reader) (*rel.Database, *fd.Set, error) {
	sigma, err := decodeSchemaFDs(rd)
	if err != nil {
		return nil, nil, err
	}
	nFacts, err := rd.count("fact", 1<<28)
	if err != nil {
		return nil, nil, err
	}
	facts := make([]rel.Fact, 0, nFacts)
	for i := 0; i < nFacts; i++ {
		relName, err := rd.string_()
		if err != nil {
			return nil, nil, err
		}
		args, err := rd.strings("argument")
		if err != nil {
			return nil, nil, err
		}
		facts = append(facts, rel.NewFact(relName, args...))
	}
	d := rel.NewDatabase(facts...)
	if err := fitSchema(d, sigma); err != nil {
		return nil, nil, err
	}
	return d, sigma, nil
}

// EncodeInstance writes a standalone versioned snapshot of one
// (schema, database, FD set) triple in the columnar v2 format.
func EncodeInstance(w io.Writer, d *rel.Database, sigma *fd.Set) error {
	var b bytes.Buffer
	b.Write(instanceMagic)
	putUvarint(&b, codecV2)
	encodeInstanceV2(&b, d, sigma)
	_, err := w.Write(b.Bytes())
	return err
}

// DecodeInstance reads a standalone snapshot written by EncodeInstance:
// the columnar v2 format or the legacy v1 row format. A v2 database's
// columns alias an owned copy of the bytes.
func DecodeInstance(r io.Reader) (*rel.Database, *fd.Set, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	return decodeInstanceBytes(owned(raw))
}

// decodeInstanceBytes decodes a standalone snapshot held in memory (or
// in a file mapping — the v2 fast path lets the database columns alias
// raw, see codec_v2.go).
func decodeInstanceBytes(raw []byte) (*rel.Database, *fd.Set, error) {
	if len(raw) < len(instanceMagic) || !bytes.Equal(raw[:len(instanceMagic)], instanceMagic) {
		return nil, nil, fmt.Errorf("store: not an instance snapshot (bad magic)")
	}
	rd := reader{bytes.NewReader(raw[len(instanceMagic):])}
	v, err := rd.uvarint()
	if err != nil {
		return nil, nil, err
	}
	switch v {
	case codecV1:
		return decodeInstanceV1(rd)
	case codecV2:
		return decodeInstanceV2(raw, rd)
	default:
		return nil, nil, fmt.Errorf("store: snapshot codec version %d not supported (have %d)", v, codecV2)
	}
}
