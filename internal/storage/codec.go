// Package storage is slimd's durability layer: a compact binary codec
// for mobility records, an append-only segmented write-ahead log with
// group-commit fsync, a base file holding the seed datasets, result
// checkpoints, and crash recovery that rebuilds a ready engine.Engine
// from the base plus every batch the log holds past it.
//
// Layering: the ingest plane appends acknowledged batches through
// Store.LogEncoded before it buffers them (ingest.Plane.Submit), the
// engine calls the Store through the one-method engine.Persister hook (a
// checkpoint trigger after each relink), and Recover composes the
// directory back into an engine. Nothing in the scoring pipeline knows
// storage exists, and the Store keeps no record in memory: the directory
// is the only copy.
//
// On-disk layout of a data directory:
//
//	snapshot-<seq>.snap  the base: seed datasets, written once when the
//	                     directory is initialised (seq 0) and never again;
//	                     in a directory an older release compacted, its last
//	                     full snapshot (seeds + batches 1..seq + a result)
//	wal-00000001.seg     CRC32C-framed record batches (see Frame format):
//	wal-00000002.seg     every batch past the base, sequence-contiguous,
//	...                  one file per 16 MiB and per process start, never
//	                     truncated
//	result-<seq>.snap    the links published as of WAL sequence <seq>; each
//	                     checkpoint writes one and removes its predecessor
//
// Frame format (shared by WAL segments, base sections and result files):
//
//	u32le payload length | u32le CRC32C(payload) | payload
//
// A torn final frame (short header, short payload, or CRC mismatch at a
// segment tail) marks the end of that segment's committed log; it is
// tolerated on replay and never acknowledged to a client, because Append
// only returns after the frame's fsync policy is satisfied. A frame that
// fails in the middle of the log leaves a hole in the batch sequence,
// which replay refuses (see replayWAL).
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"slim"
	"slim/internal/geo"
)

// maxFramePayload bounds a single frame so a corrupt length field cannot
// drive a giant allocation on replay (64 MiB).
const maxFramePayload = 64 << 20

// frameHeaderLen is the fixed frame header: u32 length + u32 CRC32C.
const frameHeaderLen = 8

// castagnoli is the CRC32C table used for every frame checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one CRC-framed payload to dst — the frame format
// shared by WAL segments, snapshot sections, and the binary ingest wire
// (application/x-slim-frame request bodies are a sequence of these).
func AppendFrame(dst, payload []byte) []byte {
	return appendFramed(dst, func(b []byte) []byte { return append(b, payload...) })
}

// appendFramed appends one CRC-framed payload to dst without building the
// payload apart: it reserves the header, lets payload append the payload
// right after it, then writes the length and checksum into the header. It
// is the one writer of the frame header; a dst with room for the whole
// frame is never copied.
func appendFramed(dst []byte, payload func([]byte) []byte) []byte {
	start := len(dst)
	dst = payload(append(dst, make([]byte, frameHeaderLen)...))
	body := dst[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, castagnoli))
	return dst
}

// ErrTornFrame reports an incomplete or corrupt frame — the expected
// shape of a crash mid-append at a log tail, or of a truncated ingest
// request body.
var ErrTornFrame = errors.New("storage: torn frame")

// NextFrame slices one frame off buf, returning the payload and the
// rest. It returns ErrTornFrame when buf ends mid-frame or the checksum
// does not match: replay treats that as end-of-log, the ingest edge as a
// malformed request.
func NextFrame(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < frameHeaderLen {
		return nil, nil, ErrTornFrame
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n > maxFramePayload {
		return nil, nil, ErrTornFrame
	}
	want := binary.LittleEndian.Uint32(buf[4:8])
	body := buf[frameHeaderLen:]
	if uint32(len(body)) < n {
		return nil, nil, ErrTornFrame
	}
	payload = body[:n]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, nil, ErrTornFrame
	}
	return payload, body[n:], nil
}

// Dataset tags carried in every WAL batch frame.
const (
	TagE = 'E' // first dataset (hash-partitioned side)
	TagI = 'I' // second dataset (replicated side)
)

// latLngScale is the fixed-point coordinate scale: 1e-7 degrees (the
// conventional "E7" representation, ~1.1 cm at the equator). Encoding is
// deliberately lossy at that resolution; history grid cells are multiple
// orders of magnitude coarser, so linkage output is unaffected.
const latLngScale = 1e7

// e7 quantizes one coordinate to fixed point.
func e7(deg float64) int64 { return int64(math.Round(deg * latLngScale)) }

// QuantizeRecord returns the record as the codec will reproduce it: the
// position rounded to E7 fixed point. Tests compare against this.
func QuantizeRecord(r slim.Record) slim.Record {
	r.LatLng = geo.LatLng{
		Lat: float64(e7(r.LatLng.Lat)) / latLngScale,
		Lng: float64(e7(r.LatLng.Lng)) / latLngScale,
	}
	return r
}

// zigzag / unzigzag map signed integers onto unsigned varint space.
func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendRecords appends the compact wire form of a record batch:
//
//	uvarint count
//	per record:
//	  uvarint len(entity) | entity bytes
//	  varint  delta(unix) from the previous record (zigzag)
//	  varint  lat, lng as E7 fixed point (zigzag)
//	  uvarint IEEE-754 bits of RadiusKm (0 for point records)
//
// Timestamps are delta-coded against the previous record in the batch:
// ingest batches arrive roughly time-ordered, so deltas are small.
// recordsBytes counts this layout by hand; change it with this function.
func appendRecords(dst []byte, recs []slim.Record) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	prevUnix := int64(0)
	for _, r := range recs {
		dst = binary.AppendUvarint(dst, uint64(len(r.Entity)))
		dst = append(dst, r.Entity...)
		dst = binary.AppendUvarint(dst, zigzag(r.Unix-prevUnix))
		prevUnix = r.Unix
		dst = binary.AppendUvarint(dst, zigzag(e7(r.LatLng.Lat)))
		dst = binary.AppendUvarint(dst, zigzag(e7(r.LatLng.Lng)))
		dst = binary.AppendUvarint(dst, math.Float64bits(r.RadiusKm))
	}
	return dst
}

// pointRecordBytes bounds what appendRecords writes for a point record
// beside its id bytes: one byte of id length, five of time delta, five each
// of latitude and longitude, one of radius. It holds for ids shorter than
// 128 bytes and time deltas under 2^34 s; a record past it (a region
// record, a longer id) only makes the buffer sized by recordsBytes grow.
const pointRecordBytes = 1 + 5 + 5 + 5 + 1

// recordsBytes is the room appendRecords needs for recs: their count,
// their ids, and pointRecordBytes a record.
func recordsBytes(recs []slim.Record) int {
	n := binary.MaxVarintLen64
	for i := range recs {
		n += len(recs[i].Entity) + pointRecordBytes
	}
	return n
}

// errCorrupt reports a structurally invalid payload (a frame whose CRC
// passed but whose contents do not decode — always a bug or disk fault,
// never an expected crash artifact).
var errCorrupt = errors.New("storage: corrupt payload")

// byteReader walks a payload with varint helpers.
type byteReader struct {
	buf []byte
	err error
}

func (b *byteReader) uvarint() uint64 {
	if b.err != nil {
		return 0
	}
	v, n := binary.Uvarint(b.buf)
	if n <= 0 {
		b.err = errCorrupt
		return 0
	}
	b.buf = b.buf[n:]
	return v
}

func (b *byteReader) bytes(n uint64) []byte {
	if b.err != nil {
		return nil
	}
	if n > uint64(len(b.buf)) {
		b.err = errCorrupt
		return nil
	}
	out := b.buf[:n]
	b.buf = b.buf[n:]
	return out
}

// readRecords decodes a batch written by appendRecords.
func (b *byteReader) readRecords() []slim.Record {
	n := b.uvarint()
	if b.err != nil {
		return nil
	}
	// Guard the allocation: each record costs at least 5 payload bytes.
	if n > uint64(len(b.buf)) {
		b.err = errCorrupt
		return nil
	}
	recs := make([]slim.Record, 0, n)
	prevUnix := int64(0)
	for i := uint64(0); i < n; i++ {
		entity := string(b.bytes(b.uvarint()))
		unix := prevUnix + unzigzag(b.uvarint())
		prevUnix = unix
		lat, lng := unzigzag(b.uvarint()), unzigzag(b.uvarint())
		radius := math.Float64frombits(b.uvarint())
		// No position off the globe was ever encoded, and one far enough off
		// would not survive a decode and re-encode.
		if lat < -90*latLngScale || lat > 90*latLngScale || lng < -180*latLngScale || lng > 180*latLngScale {
			b.err = errCorrupt
		}
		if b.err != nil {
			return nil
		}
		recs = append(recs, slim.Record{
			Entity:   slim.EntityID(entity),
			LatLng:   geo.LatLng{Lat: float64(lat) / latLngScale, Lng: float64(lng) / latLngScale},
			Unix:     unix,
			RadiusKm: radius,
		})
	}
	return recs
}

// Batch is one WAL entry: a sequenced record batch bound for one dataset.
type Batch struct {
	Seq  uint64
	Tag  byte // TagE or TagI
	Recs []slim.Record
}

// walPayload builds the payload of one WAL batch (framing is the WAL's
// job): uvarint(seq) followed by the batch's wire form, the tag byte and
// the record section recordBytes, copied verbatim.
func walPayload(seq uint64, tag byte, recordBytes []byte) []byte {
	payload := make([]byte, 0, binary.MaxVarintLen64+1+len(recordBytes))
	payload = binary.AppendUvarint(payload, seq)
	payload = append(payload, tag)
	return append(payload, recordBytes...)
}

// WireBatch is one ingest batch in the form the write path carries it:
// the dataset tag, the records on the codec's E7 grid, and RecordBytes,
// their encoded form exactly as it will be appended to the WAL
// (Store.LogEncoded). Recs must be what RecordBytes decodes to, so the
// live engine holds bit for bit what a recovery would rebuild; both
// constructors (DecodeWireBatch, EncodeWireBatch) guarantee it.
type WireBatch struct {
	Tag         byte // TagE or TagI
	RecordBytes []byte
	Recs        []slim.Record
}

// AppendWireBatch appends the binary-ingest wire form of one batch to
// dst: the dataset tag byte followed by the appendRecords encoding. This
// is exactly the WAL batch payload minus its sequence prefix, which is
// what lets the server turn an accepted wire batch into a WAL append
// without re-encoding a single record. Encoding quantizes coordinates to
// the codec's E7 fixed point, so a decoded wire batch is already on the
// QuantizeRecord grid.
func AppendWireBatch(dst []byte, tag byte, recs []slim.Record) []byte {
	dst = append(dst, tag)
	return appendRecords(dst, recs)
}

// EncodeWireBatch builds the wire batch of records that did not arrive
// encoded (the JSON ingest route, Store.LogE/LogI): it quantizes recs in
// place to the E7 grid and encodes them, the same bytes a client of the
// binary route would have sent — so both routes, with or without a data
// directory, converge on identical engine state and identical WAL bytes.
func EncodeWireBatch(tag byte, recs []slim.Record) WireBatch {
	for i := range recs {
		recs[i] = QuantizeRecord(recs[i])
	}
	return WireBatch{Tag: tag, RecordBytes: appendRecords(nil, recs), Recs: recs}
}

// DecodeWireBatch decodes one binary-ingest wire batch payload (the
// contents of one request frame). The returned RecordBytes aliases
// payload.
func DecodeWireBatch(payload []byte) (WireBatch, error) {
	if len(payload) == 0 {
		return WireBatch{}, fmt.Errorf("%w: empty batch", errCorrupt)
	}
	b := WireBatch{Tag: payload[0], RecordBytes: payload[1:]}
	if b.Tag != TagE && b.Tag != TagI {
		return WireBatch{}, fmt.Errorf("%w: unknown dataset tag %q", errCorrupt, b.Tag)
	}
	r := &byteReader{buf: b.RecordBytes}
	b.Recs = r.readRecords()
	if r.err != nil {
		return WireBatch{}, r.err
	}
	if len(r.buf) != 0 {
		return WireBatch{}, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(r.buf))
	}
	return b, nil
}

// decodeBatch decodes a WAL batch payload (see walPayload): the sequence
// number, then the wire batch DecodeWireBatch reads.
func decodeBatch(payload []byte) (Batch, error) {
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return Batch{}, errCorrupt
	}
	wb, err := DecodeWireBatch(payload[n:])
	if err != nil {
		return Batch{}, err
	}
	return Batch{Seq: seq, Tag: wb.Tag, Recs: wb.Recs}, nil
}
