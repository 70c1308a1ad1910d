package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"

	"slim"
	"slim/internal/testenv"
)

// decodeBytesPerInputByte bounds what either file decoder allocates per
// byte it is given. The count guards in readRecords and readResult let a
// section ask for at most one 48-byte record (or 40-byte link) per payload
// byte; the strings decoded are copies of at most every byte once more.
const decodeBytesPerInputByte = 64

// decodeFixedBytes is what a decode of an empty or tiny input may allocate
// beside that: the frame list and the few small values of the header.
const decodeFixedBytes = 1 << 10

// withValidCRCs returns a copy of buf whose frames carry their payloads'
// checksums, so that mutations the fuzzer makes inside a payload reach the
// section decoders instead of stopping at NextFrame.
func withValidCRCs(buf []byte) []byte {
	out := slices.Clone(buf)
	for rest := out; len(rest) >= frameHeaderLen; {
		n := binary.LittleEndian.Uint32(rest)
		if n > maxFramePayload || uint64(len(rest)-frameHeaderLen) < uint64(n) {
			break
		}
		payload := rest[frameHeaderLen : frameHeaderLen+n]
		binary.LittleEndian.PutUint32(rest[4:], crc32.Checksum(payload, castagnoli))
		rest = rest[frameHeaderLen+n:]
	}
	return out
}

// decodeAllocating runs decode on in and fails the test when it allocates
// more than the decoders' budget for an input of that size, judged on the
// least of three runs (testenv.LeastAllocated).
func decodeAllocating(t *testing.T, in []byte, decode func([]byte)) {
	t.Helper()
	n := testenv.LeastAllocated(func() { decode(in) })
	budget := decodeFixedBytes + decodeBytesPerInputByte*uint64(len(in))
	if !testenv.RaceEnabled && n > budget {
		t.Fatalf("decoding %d bytes allocated %d B, budget %d B", len(in), n, budget)
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRecords(a, b []slim.Record) bool {
	return slices.EqualFunc(a, b, func(x, y slim.Record) bool {
		return x.Entity == y.Entity && x.Unix == y.Unix && sameFloat(x.LatLng.Lat, y.LatLng.Lat) &&
			sameFloat(x.LatLng.Lng, y.LatLng.Lng) && sameFloat(x.RadiusKm, y.RadiusKm)
	})
}

func sameResult(a, b *resultData) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.method == b.method && a.spatialLevel == b.spatialLevel && a.version == b.version &&
		sameFloat(a.threshold, b.threshold) &&
		slices.EqualFunc(a.links, b.links, func(x, y slim.Link) bool {
			return x.U == y.U && x.V == y.V && sameFloat(x.Score, y.Score)
		})
}

// tornResult is the result file TestRecoverTornResult cuts: three linked
// pairs, checkpointed at sequence 6.
func tornResult() []byte {
	return encodeResult(6, &resultData{
		links: []slim.Link{
			{U: "e-0", V: "i-0", Score: 1.0 / 3}, {U: "e-1", V: "i-1", Score: 2.5}, {U: "e-2", V: "i-2", Score: math.Nextafter(1, 2)},
		},
		threshold: math.Inf(-1),
		method:    "none",
		version:   1,
	})
}

// FuzzDecodeSnapshot holds the base decoder to three oracles on any input,
// as given and with its frame checksums made valid: it does not panic,
// whatever it decodes re-encodes and decodes to the same value, bit for
// bit, and it allocates at most decodeBytesPerInputByte per input byte.
// The seeds are a small base, one with stream sections and a result, and
// every cut of a base and of a result file.
func FuzzDecodeSnapshot(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	_, res, _ := decodeResult(tornResult())
	small := encodeSnapshot(&snapshotData{
		lastSeq: 9,
		seedE:   slim.Dataset{Name: "E", Records: quantizeAll(randRecords(rng, 3))},
		seedI:   slim.Dataset{Name: "I", Records: quantizeAll(randRecords(rng, 2))},
		streamE: quantizeAll(randRecords(rng, 1)),
		result:  res,
	})
	for cut := 0; cut <= len(small); cut++ {
		f.Add(small[:cut])
	}
	f.Add(encodeSnapshot(&snapshotData{seedE: slim.Dataset{Name: "E"}, seedI: slim.Dataset{Name: "I"}}))
	f.Add(tornResult())
	// A base whose one seed record has E7 latitude 2^63-1: it decoded, and
	// came back from a re-encode at -2^63, until positions off the globe
	// were refused.
	offGlobe := binary.AppendUvarint(appendString(nil, "E"), 1)
	offGlobe = append(appendString(offGlobe, "a"), 0)
	offGlobe = append(binary.AppendUvarint(offGlobe, zigzag(math.MaxInt64)), 0, 0)
	base := AppendFrame(nil, binary.AppendUvarint(appendString(nil, snapMagic), 0))
	base = AppendFrame(base, offGlobe)
	base = AppendFrame(base, appendDataset(nil, slim.Dataset{Name: "I"}))
	base = AppendFrame(AppendFrame(base, appendRecords(nil, nil)), appendRecords(nil, nil))
	f.Add(AppendFrame(AppendFrame(base, appendResult(nil, nil)), []byte(snapFooter)))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, buf := range [][]byte{in, withValidCRCs(in)} {
			var d *snapshotData
			var err error
			decodeAllocating(t, buf, func(b []byte) { d, err = decodeSnapshot(b) })
			if err != nil {
				continue
			}
			back, err := decodeSnapshot(encodeSnapshot(d))
			if err != nil {
				t.Fatalf("a decoded base does not decode once re-encoded: %v", err)
			}
			if back.lastSeq != d.lastSeq || back.seedE.Name != d.seedE.Name || back.seedI.Name != d.seedI.Name ||
				!sameRecords(back.seedE.Records, d.seedE.Records) || !sameRecords(back.seedI.Records, d.seedI.Records) ||
				!sameRecords(back.streamE, d.streamE) || !sameRecords(back.streamI, d.streamI) ||
				!sameResult(back.result, d.result) {
				t.Fatalf("re-encoded base decodes to\n%+v\nnot\n%+v", back, d)
			}
		}
	})
}

// FuzzDecodeResult holds the result-checkpoint decoder to the oracles of
// FuzzDecodeSnapshot. The seeds are TestRecoverTornResult's cut points —
// every prefix of a result file — a checkpoint with no result, and a base.
func FuzzDecodeResult(f *testing.F) {
	whole := tornResult()
	for cut := 0; cut <= len(whole); cut++ {
		f.Add(whole[:cut])
	}
	f.Add(encodeResult(7, nil))
	f.Add(encodeSnapshot(&snapshotData{}))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, buf := range [][]byte{in, withValidCRCs(in)} {
			var seq uint64
			var res *resultData
			var err error
			decodeAllocating(t, buf, func(b []byte) { seq, res, err = decodeResult(b) })
			if err != nil {
				continue
			}
			seq2, back, err := decodeResult(encodeResult(seq, res))
			if err != nil {
				t.Fatalf("a decoded result does not decode once re-encoded: %v", err)
			}
			if seq2 != seq || !sameResult(back, res) {
				t.Fatalf("re-encoded result decodes to seq %d %+v, not seq %d %+v", seq2, back, seq, res)
			}
		}
	})
}
