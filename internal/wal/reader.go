package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// chainReaderBlocks is the number of blocks a ChainReader keeps in its own
// slot buffers. Backward chain walks exhibit strong block locality (a page's
// recent modifications cluster near the log tail, and LSNs strictly
// descend), so a small direct set covers the working span of a walk while
// keeping lookup a trivial linear scan.
const chainReaderBlocks = 8

// blockSlot is one of a ChainReader's slot buffers.
type blockSlot struct {
	idx int64 // block index, -1 when the slot is empty
	n   int   // valid bytes: readBlockSize, or fewer for the log's last block
	buf [readBlockSize]byte
}

// ChainReader is a block-granular log reader for backward chain walks
// (per-page PrevPageLSN chains, per-transaction PrevLSN chains, image
// chains), and the one block path behind every random read by LSN
// (Manager.Read drives a pooled reader too). On the as-of hot path:
//
//   - records are decoded in place into one reusable scratch Record, so a
//     steady-state chain hop performs zero allocations;
//   - the reader keeps the blocks it touched in its own slot buffers, so
//     consecutive hops within a block touch no shared lock at all; a block
//     not held locally is copied in from the shared cache under one shard
//     mutex, or read from the log as one readBlockSize I/O.
//
// The Record returned by Read, including its OldData/NewData/Extra slices,
// is valid only until the next Read call on the same reader. Callers that
// need a record to outlive the next hop must copy what they keep.
//
// A ChainReader is not safe for concurrent use; acquire one per goroutine
// via Manager.ChainReader and return it with Close.
type ChainReader struct {
	m       *Manager
	rec     Record
	blocks  [chainReaderBlocks]blockSlot
	hand    int    // round-robin replacement cursor over blocks
	scratch []byte // spill buffer for records crossing block boundaries
}

// chainReaderPool recycles readers (and their slot and spill buffers)
// across chain walks, so a PreparePageAsOf call allocates nothing in the
// steady state.
var chainReaderPool = sync.Pool{New: func() any { return new(ChainReader) }}

// ChainReader returns a reader for backward chain walks over this log.
// Return it with Close when the walk completes.
func (m *Manager) ChainReader() *ChainReader {
	r := chainReaderPool.Get().(*ChainReader)
	r.m = m
	r.hand = 0
	for i := range r.blocks {
		r.blocks[i].idx = -1
	}
	return r
}

// Close releases the reader back to the pool. The last Record returned by
// Read becomes invalid.
func (r *ChainReader) Close() {
	if r.m == nil {
		return
	}
	r.m = nil
	chainReaderPool.Put(r)
}

// Read decodes the record at lsn into the reader's reusable scratch record.
// The result (including byte fields, which alias the reader's buffers) is
// valid until the next Read or Close on this reader.
func (r *ChainReader) Read(lsn LSN) (*Record, error) {
	body, err := r.body(lsn)
	if err != nil {
		return nil, err
	}
	if err := unmarshalInto(&r.rec, body); err != nil {
		return nil, err
	}
	r.rec.LSN = lsn
	return &r.rec, nil
}

// body returns the checksum-verified body of the record at lsn, aliasing
// the reader's buffers until the next read.
func (r *ChainReader) body(lsn LSN) ([]byte, error) {
	if r.m == nil {
		return nil, errors.New("wal: Read on closed ChainReader")
	}
	if lsn == NilLSN {
		return nil, errors.New("wal: read of nil LSN")
	}
	if t := r.m.truncPoint(); lsn < t {
		return nil, fmt.Errorf("%w: %v < %v", ErrTruncated, lsn, t)
	}
	var hdr [frameHeader]byte
	if err := r.copyAt(hdr[:], int64(lsn-1)); err != nil {
		return nil, err
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if bodyLen == 0 || bodyLen > MaxRecordBytes {
		return nil, fmt.Errorf("wal: implausible record length %d at %v", bodyLen, lsn)
	}
	body, err := r.view(int64(lsn-1)+frameHeader, int(bodyLen))
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("wal: checksum mismatch at %v", lsn)
	}
	return body, nil
}

// block returns the bytes of block idx: from the reader's own slots (no
// locks), else loaded into the next slot.
func (r *ChainReader) block(idx int64) ([]byte, error) {
	for i := range r.blocks {
		if b := &r.blocks[i]; b.idx == idx {
			return b.buf[:b.n], nil
		}
	}
	return r.load(idx)
}

// load fills the next slot, round-robin, with block idx: copied from the
// shared cache, else read from the log. Only full blocks enter the shared
// cache: a partial block at the growing end would go stale as the log is
// extended. The slot may still hold it — appended records are immutable, so
// a stale-short copy is refreshed on demand (see copyAt).
func (r *ChainReader) load(idx int64) ([]byte, error) {
	b := &r.blocks[r.hand]
	r.hand = (r.hand + 1) % chainReaderBlocks
	b.idx = -1
	if r.m.cache.get(idx, b.buf[:]) {
		b.idx, b.n = idx, readBlockSize
		return b.buf[:], nil
	}
	n, err := r.m.readAt(b.buf[:], idx*readBlockSize, true)
	if err != nil && n == 0 {
		return nil, fmt.Errorf("wal: block %d: %w", idx, err)
	}
	if n == readBlockSize {
		r.m.cache.put(idx, b.buf[:])
	}
	b.idx, b.n = idx, n
	return b.buf[:n], nil
}

// refresh replaces a stale-short copy of block idx with current bytes.
func (r *ChainReader) refresh(idx int64) ([]byte, error) {
	for i := range r.blocks {
		if r.blocks[i].idx == idx {
			r.blocks[i].idx = -1
		}
	}
	return r.load(idx)
}

// copyAt fills dst from log offset off through the reader's blocks.
func (r *ChainReader) copyAt(dst []byte, off int64) error {
	for len(dst) > 0 {
		idx := off / readBlockSize
		bo := int(off % readBlockSize)
		blk, err := r.block(idx)
		if err != nil {
			return err
		}
		if bo >= len(blk) {
			if blk, err = r.refresh(idx); err != nil {
				return err
			}
			if bo >= len(blk) {
				return io.ErrUnexpectedEOF
			}
		}
		n := copy(dst, blk[bo:])
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// view returns n bytes at log offset off: a direct slice of one slot buffer
// when the range does not cross a block boundary (the common case —
// zero copies), else assembled into the reader's reusable spill buffer.
func (r *ChainReader) view(off int64, n int) ([]byte, error) {
	bo := int(off % readBlockSize)
	if bo+n <= readBlockSize {
		idx := off / readBlockSize
		blk, err := r.block(idx)
		if err != nil {
			return nil, err
		}
		if bo+n > len(blk) {
			if blk, err = r.refresh(idx); err != nil {
				return nil, err
			}
			if bo+n > len(blk) {
				return nil, io.ErrUnexpectedEOF
			}
		}
		return blk[bo : bo+n], nil
	}
	if cap(r.scratch) < n {
		r.scratch = make([]byte, n)
	}
	dst := r.scratch[:n]
	if err := r.copyAt(dst, off); err != nil {
		return nil, err
	}
	return dst, nil
}
