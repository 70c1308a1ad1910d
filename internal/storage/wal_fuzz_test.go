package storage

import (
	"io/fs"
	"os"
	"slices"
	"testing"
)

// segmentFS is a data directory of in-memory WAL segments for replayWAL:
// ReadDir lists them and ReadFile hands out their bytes without a copy, so
// what a replay allocates is what it allocates beyond the file read.
type segmentFS struct {
	FS
	segs map[string][]byte
}

func (s segmentFS) ReadDir(string) ([]os.DirEntry, error) {
	var out []os.DirEntry
	for name := range s.segs {
		out = append(out, segmentEntry(name))
	}
	return out, nil
}

func (s segmentFS) ReadFile(name string) ([]byte, error) { return s.segs[name], nil }

// segmentEntry is a segmentFS directory entry: a regular file by name.
type segmentEntry string

func (e segmentEntry) Name() string               { return string(e) }
func (e segmentEntry) IsDir() bool                { return false }
func (e segmentEntry) Type() fs.FileMode          { return 0 }
func (e segmentEntry) Info() (fs.FileInfo, error) { return nil, fs.ErrInvalid }

// replayAll replays segs from fromSeq and returns the batches it handed to
// fn, in order.
func replayAll(segs map[string][]byte, fromSeq uint64) (got []Batch, lastSeq uint64, batches int, err error) {
	lastSeq, batches, err = replayWAL(segmentFS{segs: segs}, "", fromSeq, func(b Batch) error {
		got = append(got, b)
		return nil
	})
	return got, lastSeq, batches, err
}

// FuzzReplayWAL holds the WAL segment reader to three oracles on any input,
// as one segment and split at a fuzzed offset into two (so replay meets a
// torn tail and goes on with the next segment), each as given and with its
// frame checksums made valid: it does not panic; a replay that succeeds
// hands fn exactly fromSeq+1 … lastSeq, one batch a number, and those
// batches, re-encoded into a fresh segment, replay to the same batches bit
// for bit; and it allocates at most decodeBytesPerInputByte per input byte.
// The seeds are a log the WAL wrote, every cut of it, that log's torn tail
// followed by the next generation's segment, a log with a hole and one
// with a repeated sequence.
func FuzzReplayWAL(f *testing.F) {
	logged := func(seqs ...uint64) []byte {
		dir := f.TempDir()
		w, err := openWAL(OSFS, dir, 1, 0, -1, walMetrics{})
		if err != nil {
			f.Fatal(err)
		}
		for _, seq := range seqs {
			tag := byte(TagE)
			if seq%2 == 0 {
				tag = TagI
			}
			if _, err := w.Append(batchPayload(mkBatch(seq, tag, "e", int(seq%3)+1))); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		buf, err := os.ReadFile(dir + "/" + segName(1))
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	whole := logged(1, 2, 3, 4)
	for cut := 0; cut <= len(whole); cut++ {
		f.Add(whole[:cut], uint16(cut), uint8(0))
	}
	first, next := logged(1, 2, 3), logged(3, 4, 5)
	torn := len(first) - 3
	f.Add(append(first[:torn:torn], next...), uint16(torn), uint8(1))
	f.Add(logged(1, 2, 4), uint16(0), uint8(0))
	f.Add(logged(1, 2, 2, 3), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, in []byte, cut uint16, from uint8) {
		fromSeq := uint64(from % 8)
		for _, buf := range [][]byte{in, withValidCRCs(in)} {
			k := int(cut) % (len(buf) + 1)
			for _, segs := range []map[string][]byte{
				{segName(1): buf},
				{segName(1): buf[:k], segName(2): buf[k:]},
			} {
				var got []Batch
				var lastSeq uint64
				var batches int
				var err error
				decodeAllocating(t, buf, func([]byte) { got, lastSeq, batches, err = replayAll(segs, fromSeq) })
				if err != nil {
					continue
				}
				if len(got) != batches || lastSeq != fromSeq+uint64(batches) {
					t.Fatalf("replay from %d handed fn %d batches and reported %d through %d", fromSeq, len(got), batches, lastSeq)
				}
				var fresh []byte
				for i, b := range got {
					if b.Seq != fromSeq+uint64(i)+1 {
						t.Fatalf("batch %d of a replay from %d carries sequence %d", i, fromSeq, b.Seq)
					}
					fresh = AppendFrame(fresh, batchPayload(b))
				}
				back, _, _, err := replayAll(map[string][]byte{segName(1): fresh}, fromSeq)
				if err != nil {
					t.Fatalf("replayed batches do not replay once re-encoded: %v", err)
				}
				if !slices.EqualFunc(back, got, func(x, y Batch) bool {
					return x.Seq == y.Seq && x.Tag == y.Tag && sameRecords(x.Recs, y.Recs)
				}) {
					t.Fatalf("re-encoded batches replay to\n%+v\nnot\n%+v", back, got)
				}
			}
		}
	})
}
