// Chunk export/import: the spill layer of the arenas.
//
// Because compact pointers are arena indices, not machine addresses, an
// arena's content is position-independent: writing the chunks out and
// reading them back into freshly allocated chunks reproduces the identical
// index structure. Slots (the node storage of both tree kinds) spills its
// chunks verbatim in one sequential pass; Arena[T] cannot be dumped
// generically (T may embed Go pointers, e.g. a content leaf's duplicate
// list), so its owner serializes the elements itself and rebuilds them
// index-for-index with Alloc on thaw (package indexfmt does this for the
// content leaves of both tree kinds).
//
// The word helpers reinterpret slices as raw bytes (unsafe.Slice) — spill
// files live for one plan execution on the machine that wrote them, so
// endianness and field layout never cross a process boundary.
package arena

import (
	"encoding/binary"
	"io"
	"unsafe"
)

// WriteU64 writes one uint64 (spill-file scalar framing).
func WriteU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// ReadU64 reads one uint64 written by WriteU64.
func ReadU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteU32s writes a []uint32 as raw bytes.
func WriteU32s(w io.Writer, p []uint32) error {
	if len(p) == 0 {
		return nil
	}
	_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), len(p)*4))
	return err
}

// ReadU32s fills p with raw bytes written by WriteU32s.
func ReadU32s(r io.Reader, p []uint32) error {
	if len(p) == 0 {
		return nil
	}
	_, err := io.ReadFull(r, unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), len(p)*4))
	return err
}

// WriteU64s writes a []uint64 as raw bytes.
func WriteU64s(w io.Writer, p []uint64) error {
	if len(p) == 0 {
		return nil
	}
	_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), len(p)*8))
	return err
}

// ReadU64s fills p with raw bytes written by WriteU64s.
func ReadU64s(r io.Reader, p []uint64) error {
	if len(p) == 0 {
		return nil
	}
	_, err := io.ReadFull(r, unsafe.Slice((*byte)(unsafe.Pointer(&p[0])), len(p)*8))
	return err
}

// WriteChunks writes the arena's content — block count, free list, and
// every chunk's slots — in one sequential pass. The chunk geometry is not
// written: it is fixed at MakeSlots time and must match on ReadChunks.
func (s *Slots) WriteChunks(w io.Writer) error {
	if err := WriteU64(w, uint64(s.n)); err != nil {
		return err
	}
	if err := WriteU64(w, uint64(len(s.free))); err != nil {
		return err
	}
	if err := WriteU32s(w, s.free); err != nil {
		return err
	}
	for _, c := range s.chunks {
		if err := WriteU32s(w, c); err != nil {
			return err
		}
	}
	return nil
}

// SnapshotLen reports the exact number of bytes WriteChunks will produce —
// the freeze formats record it so a partial thaw can seek past an already
// resident node section.
func (s *Slots) SnapshotLen() int {
	words := 0
	for _, c := range s.chunks {
		words += len(c)
	}
	return 16 + 4*len(s.free) + 4*words
}

// Detach drops the chunk storage and free list; the caller must have
// written the content out with WriteChunks first. With a recycler
// configured, the chunks are cleared and parked for reuse. Until
// ReadChunks restores the chunks, only Bytes (now 0) and the block/free
// counters remain meaningful.
func (s *Slots) Detach() {
	for _, c := range s.chunks {
		PutChunk(s.rec, c)
	}
	s.chunks = nil
	s.free = nil
}

// ReadChunks rebuilds the chunks from a WriteChunks stream, byte-identical:
// every block ordinal maps to the same slots as before the spill, so the
// compact pointers held by other structures stay valid. The receiver must
// have the same geometry as the writer (same MakeSlots block length).
func (s *Slots) ReadChunks(r io.Reader) error {
	n64, err := ReadU64(r)
	if err != nil {
		return err
	}
	nFree, err := ReadU64(r)
	if err != nil {
		return err
	}
	n := int(n64)
	free := make([]uint32, nFree)
	if err := ReadU32s(r, free); err != nil {
		return err
	}
	perChunk := 1 << s.perChunkBits // blocks per chunk
	chunks := make([][]uint32, 0, (n+perChunk-1)/perChunk)
	for got := 0; got < n; got += perChunk {
		blocks := min(perChunk, n-got)
		c := s.grabChunk()[:blocks<<s.blockBits]
		if err := ReadU32s(r, c); err != nil {
			return err
		}
		chunks = append(chunks, c)
	}
	s.n = n
	s.free = free
	s.chunks = chunks
	return nil
}
