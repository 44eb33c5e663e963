// Package indexfmt is the storage seam both QPPT tree kinds share: the
// content-leaf type, the spill format around it, and the one restore
// path (ROADMAP "Index spilling").
//
// Every reference inside a tree is a compact pointer — an arena index,
// not a machine address — so an index is position-independent: its node
// storage spills verbatim and comes back index-for-index. A snapshot is
//
//	magic
//	per node section: byte length, section bytes  (tree-specific layout)
//	leaf count, leaf-chunk count, leaf-chunk directory
//	per content leaf: key, row count, rows
//
// Each tree supplies only its node sections (prefix tree: node slots and
// the free-leaf list; KISS-Tree: root pages, node slots and compressed
// nodes). The leaf codec, the per-leaf-chunk directory of {min key, max
// key, byte length} and the range thaw that navigates it live here once.
//
// ThawRange is the only restore path. It brings the node sections back
// in full and, of the content leaves, only the chunks whose key range
// meets [lo, hi]; the rest are skipped with a seek. A leaf of a skipped
// chunk carries no rows and, as its key, the smallest key of its chunk.
// No thawed range contains that key (else the chunk would have been
// restored), so a scan or lookup inside the thawed ranges that reaches
// such a leaf through a node slot never takes it for a match. Calls are
// additive, and the full key span — ThawRange(f, 0, ^uint64(0)) —
// completes the index. Even a full restore skips the chunks that hold
// no live leaf: no node slot points into them.
//
// Spill files live for one plan execution on the machine that wrote
// them, so words are written in memory order and only the magic guards
// the format.
package indexfmt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"

	"qppt/internal/arena"
	"qppt/internal/duplist"
)

// A Leaf is a content node: the full key (required because dynamic
// expansion loses path information) plus all payload rows for that key.
// The row list is embedded by value to avoid a pointer chase per access.
type Leaf struct {
	Key  uint64
	Vals duplist.List
}

// A Section is one part of a tree's node layout in a snapshot. The driver
// writes the section's byte length in front of it, so a top-up thaw —
// whose nodes are resident and possibly being read — can seek past it.
type Section struct {
	// Size reports the exact number of bytes Write produces.
	Size  func() uint64
	Write func(w io.Writer) error
	// Read restores the section from r, which holds exactly size bytes.
	Read func(r io.Reader, size uint64) error
	// Release drops the section's storage.
	Release func()
}

// A Store is a tree's content-leaf arena together with the payload slab
// and the spill state. The arena is embedded, so a tree addresses its
// leaves directly (At, Alloc, Len, Scan).
type Store struct {
	arena.Arena[Leaf]
	// Slab feeds duplicate-segment and first-row storage for every
	// leaf's row list, so index construction allocates large blocks
	// instead of per-key objects.
	Slab *duplist.Slab

	magic     uint64 // snapshot tag of the owning tree kind
	chunkBits uint
	width     int // payload values per row
	rec       *arena.Recycler

	// frozen marks spilled storage; the owning tree's counters stay
	// valid, everything else is on disk.
	frozen bool
	// partial marks storage whose leaf chunks were only partly restored;
	// thawed records which are back. Only keys inside the union of the
	// thawed ranges may be queried.
	partial bool
	thawed  []bool
}

// NewStore returns an empty store with 2^chunkBits leaves per chunk,
// rows of width values, and chunk storage drawn from rec (nil = heap).
// magic tags the owner's snapshots, so a stream written by another tree
// kind is refused.
func NewStore(magic uint64, chunkBits uint, width int, rec *arena.Recycler) Store {
	s := Store{
		Arena:     arena.Make[Leaf](chunkBits),
		Slab:      duplist.NewSlabIn(rec),
		magic:     magic,
		chunkBits: chunkBits,
		width:     width,
		rec:       rec,
	}
	s.SetRecycler(rec)
	return s
}

// Frozen reports whether the storage is spilled. A frozen tree must not
// be queried or mutated until thawed.
func (s *Store) Frozen() bool { return s.frozen }

// Partial reports whether only part of the leaf payloads is resident.
func (s *Store) Partial() bool { return s.partial }

// Bytes reports the reserved leaf-arena memory plus the slab's blocks.
func (s *Store) Bytes() int {
	b := s.Arena.Bytes()
	if s.Slab != nil {
		b += s.Slab.Bytes()
	}
	return b
}

// WriteSnapshot writes the node sections and every content leaf to w in
// one sequential pass. The storage stays attached and the tree fully
// usable; Release detaches it once the snapshot is safely persisted, so
// a failed spill never drops index data.
//
// WriteSnapshot and ThawRange consume exactly their own bytes and never
// read ahead, so several structures can share one stream (a sharded
// index snapshots all its shards into one spill file). Callers provide
// write buffering.
func (s *Store) WriteSnapshot(w io.Writer, secs []Section) error {
	if s.frozen || s.partial {
		return fmt.Errorf("indexfmt: WriteSnapshot on a frozen or partially thawed index")
	}
	if err := arena.WriteU64(w, s.magic); err != nil {
		return err
	}
	for _, sec := range secs {
		if err := arena.WriteU64(w, sec.Size()); err != nil {
			return err
		}
		if err := sec.Write(w); err != nil {
			return err
		}
	}
	if err := arena.WriteU64(w, uint64(s.Len())); err != nil {
		return err
	}
	dir := s.leafDir()
	if err := arena.WriteU64(w, uint64(len(dir)/3)); err != nil {
		return err
	}
	if err := arena.WriteU64s(w, dir); err != nil {
		return err
	}
	werr := error(nil)
	s.Scan(func(_ uint32, lf *Leaf) bool {
		werr = writeLeaf(w, lf)
		return werr == nil
	})
	return werr
}

// Release detaches the node sections, the leaf arena and the slab. With
// a recycler configured the chunks are parked for the next index instead
// of going to the garbage collector. Only call after the snapshot is
// safely persisted.
func (s *Store) Release(secs []Section) {
	for _, sec := range secs {
		sec.Release()
	}
	s.Arena.Reset()
	if s.Slab != nil {
		s.Slab.Release()
	}
	s.Slab = nil
	s.partial = false
	s.thawed = nil
	s.frozen = true
}

// Recycle is Release for a resident tree whose last consumer is done; a
// frozen tree has nothing resident and is left untouched.
func (s *Store) Recycle(secs []Section) {
	if !s.frozen {
		s.Release(secs)
	}
}

// ThawRange restores the storage far enough to serve queries inside
// [lo, hi] (see the package comment) and returns the bytes read from f
// and whether the storage is now fully restored.
//
// On a partially thawed store it seeks past the resident node sections
// and restores only the missing leaf chunks the new range touches, in
// place, so readers of earlier ranges stay valid. A fully resident store
// (one shard of a partially thawed sharded index) seeks through its
// snapshot without restoring anything. If a restore from the frozen
// state fails midway, the store is rolled back to frozen: the spill file
// is intact and a later call can retry.
func (s *Store) ThawRange(f io.ReadSeeker, secs []Section, lo, hi uint64) (int64, bool, error) {
	fresh := s.frozen
	n, full, err := s.thawRange(f, secs, lo, hi)
	if err != nil && fresh {
		s.Release(secs)
	}
	return n, full, err
}

func (s *Store) thawRange(f io.ReadSeeker, secs []Section, lo, hi uint64) (int64, bool, error) {
	fresh := s.frozen
	skim := !s.frozen && !s.partial
	magic, err := arena.ReadU64(f)
	if err != nil {
		return 0, false, err
	}
	if magic != s.magic {
		return 8, false, fmt.Errorf("indexfmt: bad snapshot magic %#x, want %#x", magic, s.magic)
	}
	nRead := int64(8)
	for _, sec := range secs {
		size, err := arena.ReadU64(f)
		if err != nil {
			return nRead, false, err
		}
		nRead += 8
		if !fresh {
			if _, err := f.Seek(int64(size), io.SeekCurrent); err != nil {
				return nRead, false, err
			}
			continue
		}
		lr := &io.LimitedReader{R: f, N: int64(size)}
		br := bufio.NewReaderSize(lr, int(min(size, 1<<18)))
		if err := sec.Read(br, size); err != nil {
			return nRead, false, err
		}
		if lr.N != 0 || br.Buffered() != 0 {
			return nRead, false, fmt.Errorf("indexfmt: node section of %d bytes not fully read", size)
		}
		nRead += int64(size)
	}
	nLeaves, err := arena.ReadU64(f)
	if err != nil {
		return nRead, false, err
	}
	nChunks, err := arena.ReadU64(f)
	if err != nil {
		return nRead, false, err
	}
	if want := (nLeaves + 1<<s.chunkBits - 1) >> s.chunkBits; nChunks != want ||
		(!fresh && nLeaves != uint64(s.Len())) {
		return nRead, false, fmt.Errorf("indexfmt: leaf section of %d leaves in %d chunks does not fit", nLeaves, nChunks)
	}
	dir := make([]uint64, 3*nChunks)
	if err := arena.ReadU64s(f, dir); err != nil {
		return nRead, false, err
	}
	nRead += 16 + 24*int64(nChunks)
	if fresh {
		s.Slab = duplist.NewSlabIn(s.rec)
		for i := uint64(0); i < nLeaves; i++ {
			ci := i >> s.chunkBits
			if minK, maxK := dir[3*ci], dir[3*ci+1]; minK <= maxK {
				s.Alloc(Leaf{Key: minK})
			} else {
				s.Alloc(Leaf{})
			}
		}
		s.thawed = make([]bool, nChunks)
		s.frozen = false
		s.partial = true
	}
	n, full, err := s.thawChunks(f, dir, skim, lo, hi)
	nRead += n
	if err != nil {
		return nRead, false, err
	}
	if full && !skim {
		s.partial = false
		s.thawed = nil
	}
	return nRead, full, nil
}

// thawChunks is the leaf-chunk skip/restore loop. f is positioned at the
// first chunk's data. Chunks whose key range meets [lo, hi] and that are
// not yet thawed are read in one ReadFull and rebuilt leaf by leaf; a run
// of other chunks is skipped with one seek. In skim mode every chunk
// counts as thawed. It returns the bytes read and whether every chunk is
// restored.
func (s *Store) thawChunks(f io.ReadSeeker, dir []uint64, skim bool, lo, hi uint64) (int64, bool, error) {
	chunkLen := 1 << s.chunkBits
	var nRead, skip int64 // skip: bytes of skipped chunks not yet sought past
	var buf []byte
	row := make([]uint64, s.width)
	full := true
	for ci := 0; 3*ci < len(dir); ci++ {
		minK, maxK, nb := dir[3*ci], dir[3*ci+1], dir[3*ci+2]
		if !skim && !s.thawed[ci] && minK > maxK {
			s.thawed[ci] = true // no live leaves: zero is already right
		}
		if skim || s.thawed[ci] || minK > hi || maxK < lo {
			full = full && (skim || s.thawed[ci])
			skip += int64(nb)
			continue
		}
		if skip > 0 {
			if _, err := f.Seek(skip, io.SeekCurrent); err != nil {
				return nRead, false, err
			}
			skip = 0
		}
		if uint64(cap(buf)) < nb {
			buf = make([]byte, nb)
		}
		buf = buf[:nb]
		if _, err := io.ReadFull(f, buf); err != nil {
			return nRead, false, err
		}
		nRead += int64(nb)
		br := bytes.NewReader(buf)
		base := ci * chunkLen
		for j := base; j < min(base+chunkLen, s.Len()); j++ {
			if err := readLeaf(br, s.At(uint32(j)), s.width, s.Slab, row); err != nil {
				return nRead, false, err
			}
		}
		s.thawed[ci] = true
	}
	if skip > 0 {
		if err := seekWithin(f, skip); err != nil {
			return nRead, false, err
		}
	}
	return nRead, full, nil
}

// seekWithin advances f by n bytes and fails if that passes the end of
// the stream. Files and readers allow seeking beyond their end, so a
// truncated snapshot whose tail is only skipped would otherwise thaw
// without an error.
func seekWithin(f io.ReadSeeker, n int64) error {
	pos, err := f.Seek(n, io.SeekCurrent)
	if err != nil {
		return err
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if pos > end {
		return io.ErrUnexpectedEOF
	}
	_, err = f.Seek(pos, io.SeekStart)
	return err
}

// leafDir builds the per-chunk directory a range thaw navigates by: one
// {min key, max key, byte length} triple per leaf chunk. Only leaves
// with rows count toward the key range (recycled leaves are zero and
// carry no data), so a chunk without any gets the empty sentinel
// min > max and no key range ever selects it.
func (s *Store) leafDir() []uint64 {
	chunkLen := 1 << s.chunkBits
	dir := make([]uint64, 0, 3*((s.Len()+chunkLen-1)/chunkLen))
	minK, maxK, size := ^uint64(0), uint64(0), uint64(0)
	s.Scan(func(idx uint32, lf *Leaf) bool {
		if idx > 0 && int(idx)&(chunkLen-1) == 0 {
			dir = append(dir, minK, maxK, size)
			minK, maxK, size = ^uint64(0), 0, 0
		}
		if lf.Vals.Len() > 0 {
			minK, maxK = min(minK, lf.Key), max(maxK, lf.Key)
		}
		size += 16 + 8*uint64(s.width)*uint64(lf.Vals.Len())
		return true
	})
	if s.Len() > 0 {
		dir = append(dir, minK, maxK, size)
	}
	return dir
}

// writeLeaf serializes one content leaf: key, row count, then the rows
// in insertion order (none for an existence-only index).
func writeLeaf(w io.Writer, lf *Leaf) error {
	if err := arena.WriteU64(w, lf.Key); err != nil {
		return err
	}
	if err := arena.WriteU64(w, uint64(lf.Vals.Len())); err != nil {
		return err
	}
	if lf.Vals.Width() == 0 {
		return nil
	}
	werr := error(nil)
	lf.Vals.Scan(func(row []uint64) bool {
		werr = arena.WriteU64s(w, row)
		return werr == nil
	})
	return werr
}

// readLeaf rebuilds one content leaf in place, drawing row storage from
// slab. row is a width-sized scratch buffer.
func readLeaf(r io.Reader, lf *Leaf, width int, slab *duplist.Slab, row []uint64) error {
	key, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	n, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	*lf = Leaf{Key: key, Vals: duplist.Make(width)}
	for j := uint64(0); j < n; j++ {
		if width > 0 {
			if err := arena.ReadU64s(r, row); err != nil {
				return err
			}
		}
		lf.Vals.AppendIn(slab, row[:width])
	}
	return nil
}
