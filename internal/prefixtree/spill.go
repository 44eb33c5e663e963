package prefixtree

import (
	"io"

	"qppt/internal/arena"
	"qppt/internal/indexfmt"
)

// Spill hooks (ROADMAP "Index spilling"). The snapshot format, the leaf
// codec and the range thaw are package indexfmt's; the tree supplies only
// its node layout: the node slot chunks and the free-leaf list. The cheap
// scalar state (key/row counters, geometry) stays in the Tree struct
// across a freeze, so planners can keep consulting Keys()/Rows() on a
// frozen index without touching the spill file.

// freezeMagic guards against thawing a stream produced by a different
// structure (or a different format revision).
const freezeMagic = 0x5150_5054_5054_0002 // "QPPT" + prefix-tree format 2

// sections lists the tree's node sections in snapshot order.
func (t *Tree) sections() []indexfmt.Section {
	return []indexfmt.Section{
		{
			Size:    func() uint64 { return uint64(t.nodes.SnapshotLen()) },
			Write:   t.nodes.WriteChunks,
			Read:    func(r io.Reader, _ uint64) error { return t.nodes.ReadChunks(r) },
			Release: t.nodes.Detach,
		},
		{
			Size:  func() uint64 { return 4 * uint64(len(t.freeLeaves)) },
			Write: func(w io.Writer) error { return arena.WriteU32s(w, t.freeLeaves) },
			Read: func(r io.Reader, size uint64) error {
				t.freeLeaves = make([]uint32, size/4)
				return arena.ReadU32s(r, t.freeLeaves)
			},
			Release: func() { t.freeLeaves = nil },
		},
	}
}

// Frozen reports whether the tree's storage is spilled. A frozen tree
// must not be queried or mutated until thawed.
func (t *Tree) Frozen() bool { return t.leaves.Frozen() }

// Partial reports whether only part of the leaf payloads is resident
// (see ThawRange). A partial tree must only be queried inside the union
// of the thawed key ranges.
func (t *Tree) Partial() bool { return t.leaves.Partial() }

// WriteSnapshot writes the tree's storage to w (indexfmt.Store.WriteSnapshot);
// the tree stays fully usable until Release.
func (t *Tree) WriteSnapshot(w io.Writer) error { return t.leaves.WriteSnapshot(w, t.sections()) }

// Release detaches the storage the last WriteSnapshot captured, parking
// chunks in the configured recycler. Only call after the snapshot is
// safely persisted.
func (t *Tree) Release() { t.leaves.Release(t.sections()) }

// Recycle drops a resident tree's storage into the configured recycler;
// the executor calls it when the last consumer of an intermediate index
// is done. The tree is unusable afterwards.
func (t *Tree) Recycle() { t.leaves.Recycle(t.sections()) }

// ThawRange restores the tree far enough to serve queries inside
// [lo, hi] and reports the bytes read and whether the tree is complete
// (indexfmt.Store.ThawRange). ThawRange(f, 0, ^uint64(0)) is a full
// restore.
func (t *Tree) ThawRange(f io.ReadSeeker, lo, hi uint64) (int64, bool, error) {
	return t.leaves.ThawRange(f, t.sections(), lo, hi)
}
