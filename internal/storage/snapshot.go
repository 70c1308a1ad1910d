package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"

	"slim"
)

// Two kinds of file sit beside the WAL segments, both sequences of CRC
// frames (same framing as the WAL), both written to a temp name, fsynced
// and renamed into place, so a data directory never holds a partially
// visible one under its real name:
//
// The base, snapshot-<seq>.snap — header, seedE, seedI, streamE, streamI,
// result, footer. It is written once, when a directory is initialised
// (the seeds, seq 0, empty stream sections, no result), and never again.
// A directory last written by a release that compacted the log into full
// snapshots has a base at seq N whose stream sections hold the records of
// batches 1..N and whose result section may be set; it reads the same way.
// The footer frame proves the file was written to completion.
//
// The result checkpoint, result-<seq>.snap — one frame: magic, seq, the
// published result as of WAL sequence seq. Rewritten at every checkpoint;
// its only use is to serve links before the first relink after a restart.

const (
	snapMagic  = "slimsnap1"
	snapFooter = "slimsnapend"
	snapPrefix = "snapshot-"
	snapSuffix = ".snap"

	resultMagic  = "slimres1"
	resultPrefix = "result-"
)

func snapName(lastSeq uint64) string {
	return fmt.Sprintf("%s%016d%s", snapPrefix, lastSeq, snapSuffix)
}

func resultName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", resultPrefix, seq, snapSuffix)
}

// resultData is the persisted slice of a slim.Result: enough to serve
// /v1/links immediately after recovery, before the first fresh relink.
type resultData struct {
	links        []slim.Link
	threshold    float64
	method       string
	spatialLevel int
	version      uint64
}

// snapshotData is a decoded base: the immutable seed datasets and, in a
// base written by a release that compacted the log, every record streamed
// through lastSeq plus the result published then.
type snapshotData struct {
	lastSeq          uint64
	seedE, seedI     slim.Dataset
	streamE, streamI []slim.Record
	result           *resultData
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func (b *byteReader) readString() string {
	return string(b.bytes(b.uvarint()))
}

func appendDataset(dst []byte, d slim.Dataset) []byte {
	dst = appendString(dst, d.Name)
	return appendRecords(dst, d.Records)
}

func (b *byteReader) readDataset() slim.Dataset {
	name := b.readString()
	return slim.Dataset{Name: name, Records: b.readRecords()}
}

// appendResult appends the result section shared by both file kinds: a
// presence byte, then links, threshold, method, spatial level, version.
// resultBytes counts this layout; change it with this function.
func appendResult(dst []byte, res *resultData) []byte {
	if res == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(len(res.links)))
	for _, l := range res.links {
		dst = appendString(dst, string(l.U))
		dst = appendString(dst, string(l.V))
		dst = binary.AppendUvarint(dst, math.Float64bits(l.Score))
	}
	dst = binary.AppendUvarint(dst, math.Float64bits(res.threshold))
	dst = appendString(dst, res.method)
	dst = binary.AppendUvarint(dst, uint64(res.spatialLevel))
	return binary.AppendUvarint(dst, res.version)
}

// resultBytes bounds what appendResult writes for res.
func resultBytes(res *resultData) int {
	if res == nil {
		return 1
	}
	n := 1 + 4*binary.MaxVarintLen64 + len(res.method)
	for _, l := range res.links {
		n += len(l.U) + len(l.V) + 3*binary.MaxVarintLen64
	}
	return n
}

// readResult decodes a section written by appendResult (nil when the
// presence byte says none was published yet).
func (b *byteReader) readResult() *resultData {
	present := b.bytes(1)
	if b.err != nil || present[0] != 1 {
		return nil
	}
	n := b.uvarint()
	// Guard the allocation: each link costs at least 3 payload bytes.
	if b.err != nil || n > uint64(len(b.buf)) {
		b.err = errCorrupt
		return nil
	}
	res := &resultData{links: make([]slim.Link, 0, n)}
	for i := uint64(0); i < n; i++ {
		u := b.readString()
		v := b.readString()
		score := math.Float64frombits(b.uvarint())
		res.links = append(res.links, slim.Link{U: slim.EntityID(u), V: slim.EntityID(v), Score: score})
	}
	res.threshold = math.Float64frombits(b.uvarint())
	res.method = b.readString()
	res.spatialLevel = int(b.uvarint())
	res.version = b.uvarint()
	if b.err != nil {
		return nil
	}
	return res
}

// encodeSnapshot serializes a base as framed sections, each appended in
// place into one buffer sized from the records it holds.
func encodeSnapshot(d *snapshotData) []byte {
	size := 7*frameHeaderLen + 4*binary.MaxVarintLen64 + len(snapMagic) + len(snapFooter) +
		len(d.seedE.Name) + len(d.seedI.Name) + recordsBytes(d.seedE.Records) + recordsBytes(d.seedI.Records) +
		recordsBytes(d.streamE) + recordsBytes(d.streamI) + resultBytes(d.result)
	out := appendFramed(make([]byte, 0, size), func(b []byte) []byte {
		b = appendString(b, snapMagic)
		return binary.AppendUvarint(b, d.lastSeq)
	})
	out = appendFramed(out, func(b []byte) []byte { return appendDataset(b, d.seedE) })
	out = appendFramed(out, func(b []byte) []byte { return appendDataset(b, d.seedI) })
	out = appendFramed(out, func(b []byte) []byte { return appendRecords(b, d.streamE) })
	out = appendFramed(out, func(b []byte) []byte { return appendRecords(b, d.streamI) })
	out = appendFramed(out, func(b []byte) []byte { return appendResult(b, d.result) })
	return appendFramed(out, func(b []byte) []byte { return append(b, snapFooter...) })
}

// decodeSnapshot parses a base; any framing, checksum, or structural
// fault is an error.
func decodeSnapshot(buf []byte) (*snapshotData, error) {
	frames := make([][]byte, 0, 7)
	for len(buf) > 0 && len(frames) < 7 {
		payload, rest, err := NextFrame(buf)
		if err != nil {
			return nil, err
		}
		frames = append(frames, payload)
		buf = rest
	}
	if len(frames) != 7 || len(buf) != 0 {
		return nil, errCorrupt
	}
	if string(frames[6]) != snapFooter {
		return nil, fmt.Errorf("%w: missing footer", errCorrupt)
	}

	h := &byteReader{buf: frames[0]}
	if h.readString() != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	d := &snapshotData{lastSeq: h.uvarint()}
	if h.err != nil {
		return nil, h.err
	}

	rE := &byteReader{buf: frames[1]}
	d.seedE = rE.readDataset()
	rI := &byteReader{buf: frames[2]}
	d.seedI = rI.readDataset()
	sE := &byteReader{buf: frames[3]}
	d.streamE = sE.readRecords()
	sI := &byteReader{buf: frames[4]}
	d.streamI = sI.readRecords()
	rr := &byteReader{buf: frames[5]}
	d.result = rr.readResult()
	for _, r := range []*byteReader{rE, rI, sE, sI, rr} {
		if r.err != nil {
			return nil, r.err
		}
	}
	return d, nil
}

// encodeResult serializes one result checkpoint: one frame, appended in
// place into a buffer sized from its links.
func encodeResult(seq uint64, res *resultData) []byte {
	size := frameHeaderLen + 2*binary.MaxVarintLen64 + len(resultMagic) + resultBytes(res)
	return appendFramed(make([]byte, 0, size), func(b []byte) []byte {
		b = appendString(b, resultMagic)
		b = binary.AppendUvarint(b, seq)
		return appendResult(b, res)
	})
}

// decodeResult parses a result checkpoint. res is nil when the checkpoint
// was taken before anything was published.
func decodeResult(buf []byte) (seq uint64, res *resultData, err error) {
	payload, rest, err := NextFrame(buf)
	if err != nil {
		return 0, nil, err
	}
	r := &byteReader{buf: payload}
	if r.readString() != resultMagic {
		return 0, nil, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	seq = r.uvarint()
	res = r.readResult()
	if r.err != nil {
		return 0, nil, r.err
	}
	if len(r.buf) != 0 || len(rest) != 0 {
		return 0, nil, fmt.Errorf("%w: trailing bytes", errCorrupt)
	}
	return seq, res, nil
}

// writeAtomic durably publishes buf as dir/name: temp file, fsync, atomic
// rename, directory fsync. Returns the final path.
func writeAtomic(fs FS, dir, tmpPattern, name string, buf []byte) (string, error) {
	final := filepath.Join(dir, name)
	tmp, err := fs.CreateTemp(dir, tmpPattern)
	if err != nil {
		return "", err
	}
	tmpName := tmp.Name()
	cleanup := func() { fs.Remove(tmpName) }
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		cleanup()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return "", err
	}
	if err := fs.Rename(tmpName, final); err != nil {
		cleanup()
		return "", err
	}
	return final, fs.SyncDir(dir)
}

// writeSnapshot durably writes a base.
func writeSnapshot(fs FS, dir string, d *snapshotData) (string, error) {
	return writeAtomic(fs, dir, snapPrefix+"*.tmp", snapName(d.lastSeq), encodeSnapshot(d))
}

// writeResult durably writes the result checkpoint for WAL sequence seq.
func writeResult(fs FS, dir string, seq uint64, res *resultData) (string, error) {
	return writeAtomic(fs, dir, resultPrefix+"*.tmp", resultName(seq), encodeResult(seq, res))
}

// loadNewestSnapshot returns the directory's base (nil if it has none; the
// newest when an interrupted compaction of an older release left two). It
// fails stop rather than fail open: the temp-rename write protocol means a
// *.snap that does not read and decode cleanly is real corruption, never a
// crash artifact, and the base is the only copy of the seeds (and, in a
// directory an older release compacted, of every batch up to its
// sequence). Nothing can be rebuilt around it silently; the operator must
// restore the named file.
func loadNewestSnapshot(fs FS, dir string) (*snapshotData, error) {
	snaps, err := listNumbered(fs, dir, snapPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, nil
	}
	sf := snaps[len(snaps)-1]
	buf, err := fs.ReadFile(sf.path)
	if err != nil {
		return nil, fmt.Errorf("storage: reading %s: %w", sf.path, err)
	}
	d, err := decodeSnapshot(buf)
	if err != nil {
		return nil, fmt.Errorf("storage: %s is corrupt (%w); restore it from a copy — removing it only helps when the log still starts at batch 1, and then loses the seed datasets it held", sf.path, err)
	}
	return d, nil
}

// loadResult returns the result checkpointed at exactly lastSeq, the last
// sequence recovery replayed, or nil: a checkpoint taken before later
// batches were logged is stale, and one that cannot be read or decoded is
// worth no more than a missing one — either way the caller relinks, which
// is always correct. A checkpoint ahead of the log (its tail was lost, as
// -fsync-interval <0 allows on a host crash) is removed, because the
// sequences it claims will be assigned again, to different batches.
func loadResult(fs FS, dir string, lastSeq uint64) (*resultData, error) {
	files, err := listNumbered(fs, dir, resultPrefix, snapSuffix)
	if err != nil {
		return nil, err
	}
	for _, f := range slices.Backward(files) {
		switch {
		case f.n > lastSeq:
			if err := fs.Remove(f.path); err != nil {
				return nil, err
			}
		case f.n == lastSeq:
			if buf, err := fs.ReadFile(f.path); err == nil {
				if seq, res, err := decodeResult(buf); err == nil && seq == lastSeq {
					return res, nil
				}
			}
			return nil, nil
		}
	}
	return nil, nil
}

// removeOrphanTemps deletes base and result temp files left by a crash
// between CreateTemp and the atomic rename. Called from Recover, before
// any concurrent checkpoint can be writing a live temp file.
func removeOrphanTemps(fs FS, dir string) error {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") && (strings.HasPrefix(name, snapPrefix) || strings.HasPrefix(name, resultPrefix)) {
			if err := fs.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// removeResultsBefore deletes result checkpoints older than keepSeq
// (called after a newer one is durable). The removals are not fsynced: one
// that a host crash undoes brings back a file recovery either ignores (its
// sequence is behind the log) or may use (the log lost its tail back to
// exactly that sequence, and the file says what was published then).
func removeResultsBefore(fs FS, dir string, keepSeq uint64) error {
	files, err := listNumbered(fs, dir, resultPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for _, f := range files {
		if f.n < keepSeq {
			if err := fs.Remove(f.path); err != nil {
				return err
			}
		}
	}
	return nil
}
