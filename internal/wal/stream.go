package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// This file is the replication side of the log: the published-offset
// tracking a tailing reader synchronizes on, and the chunk codec the
// primary's /wal/stream endpoint and the follower's replica client share.
//
// # Offsets
//
// A log has two offsets. The append offset (Stats().Offset) advances as
// the group-commit leader appends, BEFORE the batch's fsync and epoch
// publication — records past it can still be rewound if the batch fails.
// The published offset trails it: the store advances it (PublishTo) only
// after the batch's epoch is visible to readers, so everything at or
// below the published offset is immutable history that will never be
// rewound. A replication stream serves exactly the published prefix;
// because publication happens per batch and one batch is one epoch, the
// published offset always lands on an epoch boundary.
//
// # Chunks
//
// The stream is framed in chunks, one chunk per published epoch: every
// record of that epoch's batch, verbatim (the record frames, CRCs
// included), prefixed by a fixed header carrying the epoch, the log
// offset the chunk ends at (the follower's resume cursor) and the
// primary's published epoch at send time (for lag accounting). A
// follower applies a chunk atomically — all of the epoch's deltas, then
// one publication — so it can never serve an epoch it holds only part
// of, and a connection cut mid-chunk loses nothing: the follower resumes
// from the last chunk's end offset and the record CRCs re-validate the
// retransmission.

// chunkHeaderSize is the fixed prefix of a stream chunk: frame-byte
// count, epoch, end offset, primary epoch, and a CRC32-Castagnoli over
// those 28 bytes.
const chunkHeaderSize = 4 + 8 + 8 + 8 + 4

// maxChunkBytes sanity-bounds one chunk's frame bytes on the read side (a
// chunk holds one group commit's records; far below this in practice).
const maxChunkBytes = 1 << 30

// Chunk is one stream unit: all records of exactly one published epoch.
type Chunk struct {
	// Epoch is the epoch every record in Frames committed in.
	Epoch uint64
	// EndOffset is the log offset of the byte after the chunk's last
	// record — the cursor a follower resumes from after applying it.
	EndOffset int64
	// PrimaryEpoch is the primary's published epoch when the chunk was
	// sent; EndEpoch lag = PrimaryEpoch - Epoch.
	PrimaryEpoch uint64
	// Frames holds the epoch's record frames verbatim (length, CRC,
	// epoch, payload per record).
	Frames []byte
}

// WriteChunk writes one chunk to w in the wire framing.
func WriteChunk(w io.Writer, c Chunk) error {
	hdr := make([]byte, 0, chunkHeaderSize)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(c.Frames)))
	hdr = binary.LittleEndian.AppendUint64(hdr, c.Epoch)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(c.EndOffset))
	hdr = binary.LittleEndian.AppendUint64(hdr, c.PrimaryEpoch)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, crcTable))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(c.Frames)
	return err
}

// ReadChunk reads the next chunk from r. A clean end of stream (EOF at a
// chunk boundary) returns io.EOF; a cut mid-chunk returns
// io.ErrUnexpectedEOF — the follower treats both as a reconnect signal,
// never applying the partial chunk (the torn-tail rule of the log,
// applied to the wire).
func ReadChunk(r io.Reader) (Chunk, error) {
	hdr := make([]byte, chunkHeaderSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return Chunk{}, io.EOF
		}
		return Chunk{}, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(hdr[:chunkHeaderSize-4], crcTable) != binary.LittleEndian.Uint32(hdr[chunkHeaderSize-4:]) {
		return Chunk{}, fmt.Errorf("wal: stream chunk header CRC mismatch")
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxChunkBytes {
		return Chunk{}, fmt.Errorf("wal: stream chunk of %d bytes implausible", n)
	}
	c := Chunk{
		Epoch:        binary.LittleEndian.Uint64(hdr[4:]),
		EndOffset:    int64(binary.LittleEndian.Uint64(hdr[12:])),
		PrimaryEpoch: binary.LittleEndian.Uint64(hdr[20:]),
		Frames:       make([]byte, n),
	}
	if _, err := io.ReadFull(r, c.Frames); err != nil {
		return Chunk{}, io.ErrUnexpectedEOF
	}
	return c, nil
}

// StreamRecord is one record parsed out of a chunk's frames.
type StreamRecord struct {
	Epoch   uint64
	Payload []byte
}

// ParseFrames parses a byte run of record frames starting at a record
// boundary, validating each frame's shape and CRC. Unlike Open's scan,
// the input is supposed to be fully committed bytes, so any torn or
// corrupt frame is an error rather than a truncation point. The returned
// payloads alias buf.
func ParseFrames(buf []byte) ([]StreamRecord, error) {
	var recs []StreamRecord
	pos := 0
	for pos < len(buf) {
		if len(buf)-pos < frameSize {
			return nil, fmt.Errorf("wal: stream frame torn at byte %d of %d", pos, len(buf))
		}
		length := binary.LittleEndian.Uint32(buf[pos:])
		crc := binary.LittleEndian.Uint32(buf[pos+4:])
		epoch := binary.LittleEndian.Uint64(buf[pos+8:])
		if length > maxRecordBytes {
			return nil, fmt.Errorf("wal: stream record length %d implausible", length)
		}
		if len(buf)-pos < frameSize+int(length) {
			return nil, fmt.Errorf("wal: stream record payload torn at byte %d of %d", pos, len(buf))
		}
		payload := buf[pos+frameSize : pos+frameSize+int(length)]
		sum := crc32.Checksum(buf[pos+8:pos+frameSize], crcTable)
		sum = crc32.Update(sum, crcTable, payload)
		if sum != crc {
			return nil, fmt.Errorf("wal: stream record CRC mismatch at byte %d", pos)
		}
		recs = append(recs, StreamRecord{Epoch: epoch, Payload: payload})
		pos += frameSize + int(length)
	}
	return recs, nil
}

// HeaderSize returns the byte size of a log file's header — the smallest
// valid stream offset (offset 0 points at the magic, not a record).
func HeaderSize() int64 { return int64(headerSize) }

// Path returns the log's file path, for a streaming reader that opens
// its own descriptor (the appender's descriptor and seek position are
// not shared).
func (l *Log) Path() string { return l.path }

// Published returns the offset through the last published epoch — the
// immutable prefix a replication stream may serve.
func (l *Log) Published() int64 { return l.published.Load() }

// PublishTo marks the log's prefix through off as published. The store
// calls it under its writer lock right after the epoch's snapshot
// becomes visible; offsets only ever grow. Tailing readers are woken.
func (l *Log) PublishTo(off int64) {
	if off <= l.published.Load() {
		return
	}
	l.published.Store(off)
	l.wake()
}

// wake broadcasts to every waiter by closing and replacing the notify
// channel.
func (l *Log) wake() {
	l.notifyMu.Lock()
	ch := l.notify
	l.notify = make(chan struct{})
	l.notifyMu.Unlock()
	close(ch)
}

func (l *Log) waitCh() <-chan struct{} {
	l.notifyMu.Lock()
	defer l.notifyMu.Unlock()
	return l.notify
}

// ErrBadStreamOffset is returned by NewTailer for an offset outside the
// published prefix — below the file header or past what the log has
// published (a follower that somehow got ahead, e.g. of a primary that
// recovered without its un-fsynced tail).
var ErrBadStreamOffset = fmt.Errorf("wal: stream offset outside the published prefix")

// Tailer reads published epochs of a log from a byte offset, on its own
// file descriptor (the appender's descriptor and seek position are not
// shared, and the open descriptor keeps the file readable even after a
// rotation unlinks it). One goroutine per Tailer.
type Tailer struct {
	l   *Log
	f   *os.File
	br  *bufio.Reader
	off int64 // offset of the next unread byte; always an epoch boundary
	pub int64 // published offset as last observed
}

// NewTailer opens a tail of l starting at byte offset from, which must
// lie inside the published prefix (HeaderSize() ≤ from ≤ Published())
// and fall on a record boundary — followers only ever pass offsets the
// stream itself handed out, plus the two anchors HeaderSize() and a
// checkpoint's fresh log.
func (l *Log) NewTailer(from int64) (*Tailer, error) {
	if from < int64(headerSize) || from > l.Published() {
		return nil, fmt.Errorf("%w: %d not in [%d, %d]", ErrBadStreamOffset, from, headerSize, l.Published())
	}
	f, err := os.Open(l.path)
	if err != nil {
		return nil, fmt.Errorf("wal: open log for tailing: %w", err)
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek log for tailing: %w", err)
	}
	return &Tailer{l: l, f: f, br: bufio.NewReaderSize(f, 256<<10), off: from, pub: l.Published()}, nil
}

// Close releases the tailer's file descriptor.
func (t *Tailer) Close() error { return t.f.Close() }

// Offset returns the tail cursor: the log offset of the next byte the
// tailer would serve.
func (t *Tailer) Offset() int64 { return t.off }

// Next blocks until at least one complete epoch is published past the
// cursor and returns it as a chunk (PrimaryEpoch left zero for the
// caller to stamp). It returns io.EOF once the log has retired and the
// cursor has drained everything it published — the follower's signal to
// re-anchor against the successor log — and a plain error if done closes
// first or the file bytes fail validation.
func (t *Tailer) Next(done <-chan struct{}) (Chunk, error) {
	if t.off >= t.pub {
		pub, retired := t.l.WaitPublished(done, t.off)
		if pub <= t.off {
			if retired {
				return Chunk{}, io.EOF
			}
			return Chunk{}, fmt.Errorf("wal: tail canceled")
		}
		t.pub = pub
	}
	var frames []byte
	var epoch uint64
	for t.off < t.pub {
		hdr, err := t.br.Peek(frameSize)
		if err != nil {
			return Chunk{}, fmt.Errorf("wal: tail read at offset %d: %w", t.off, err)
		}
		length := binary.LittleEndian.Uint32(hdr)
		e := binary.LittleEndian.Uint64(hdr[8:])
		if frames != nil && e != epoch {
			break // next epoch starts; emit what we have
		}
		epoch = e
		if length > maxRecordBytes {
			return Chunk{}, fmt.Errorf("wal: tail record length %d at offset %d implausible", length, t.off)
		}
		rec := make([]byte, frameSize+int(length))
		if _, err := io.ReadFull(t.br, rec); err != nil {
			return Chunk{}, fmt.Errorf("wal: tail read at offset %d: %w", t.off, err)
		}
		sum := crc32.Checksum(rec[8:frameSize], crcTable)
		sum = crc32.Update(sum, crcTable, rec[frameSize:])
		if sum != binary.LittleEndian.Uint32(rec[4:]) {
			return Chunk{}, fmt.Errorf("wal: tail record CRC mismatch at offset %d", t.off)
		}
		frames = append(frames, rec...)
		t.off += int64(len(rec))
	}
	return Chunk{Epoch: epoch, EndOffset: t.off, Frames: frames}, nil
}

// WaitPublished blocks until the published offset exceeds from, the log
// retires, or done is closed, and returns the published offset and the
// retired flag as last observed. The channel is fetched before the
// condition check, so a publish racing the wait can never be missed.
func (l *Log) WaitPublished(done <-chan struct{}, from int64) (published int64, retired bool) {
	for {
		ch := l.waitCh()
		pub, ret := l.published.Load(), l.retired.Load()
		if pub > from || ret {
			return pub, ret
		}
		select {
		case <-ch:
		case <-done:
			return l.published.Load(), l.retired.Load()
		}
	}
}
