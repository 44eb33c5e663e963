package kisstree

import (
	"fmt"
	"io"

	"qppt/internal/arena"
	"qppt/internal/indexfmt"
)

// Spill hooks, mirroring package prefixtree: the snapshot format, the
// leaf codec and the range thaw are package indexfmt's, and the tree
// supplies only its node layout — the touched root pages, the node slot
// chunks and the compressed nodes. Scalar state (key/row counters,
// min/max bounds, RCU-copy and root-page metrics) stays in the Tree
// struct across a freeze.

// kissFreezeMagic distinguishes KISS-Tree freeze streams from prefix-tree
// ones (a sharded index freezes heterogeneous shards into one file).
const kissFreezeMagic = 0x5150_5054_4B53_0002 // "QPPT" + KISS format 2

// sections lists the tree's node sections in snapshot order.
func (t *Tree) sections() []indexfmt.Section {
	return []indexfmt.Section{
		{
			Size:    t.rootSnapshotBytes,
			Write:   t.writeRootSection,
			Read:    func(r io.Reader, _ uint64) error { return t.readRootSection(r) },
			Release: t.releaseRoot,
		},
		{
			Size:    func() uint64 { return uint64(t.nodes.SnapshotLen()) },
			Write:   t.nodes.WriteChunks,
			Read:    func(r io.Reader, _ uint64) error { return t.nodes.ReadChunks(r) },
			Release: t.nodes.Detach,
		},
		{
			Size:    t.cnodeSnapshotBytes,
			Write:   t.writeCnodeSection,
			Read:    func(r io.Reader, _ uint64) error { return t.readCnodeSection(r) },
			Release: func() { t.cnodes = nil },
		},
	}
}

// Frozen reports whether the tree's storage is spilled. A frozen tree
// must not be queried or mutated until thawed.
func (t *Tree) Frozen() bool { return t.leaves.Frozen() }

// Partial reports whether only part of the leaf payloads is resident (see
// ThawRange).
func (t *Tree) Partial() bool { return t.leaves.Partial() }

// WriteSnapshot writes the tree's storage to w (indexfmt.Store.WriteSnapshot);
// the tree stays fully usable until Release.
func (t *Tree) WriteSnapshot(w io.Writer) error { return t.leaves.WriteSnapshot(w, t.sections()) }

// Release detaches the storage the last WriteSnapshot captured, parking
// chunks in the configured recycler. Only call after the snapshot is
// safely persisted.
func (t *Tree) Release() { t.leaves.Release(t.sections()) }

// Recycle drops a resident tree's storage into the configured recycler;
// the tree is unusable afterwards.
func (t *Tree) Recycle() { t.leaves.Recycle(t.sections()) }

// ThawRange restores the tree far enough to serve queries inside [lo, hi]
// and reports the bytes read and whether the tree is complete
// (indexfmt.Store.ThawRange). ThawRange(f, 0, ^uint64(0)) is a full
// restore.
func (t *Tree) ThawRange(f io.ReadSeeker, lo, hi uint64) (int64, bool, error) {
	return t.leaves.ThawRange(f, t.sections(), lo, hi)
}

// touchedRootChunks counts the root page chunks faulted in by writes.
func (t *Tree) touchedRootChunks() uint64 {
	touched := uint64(0)
	for _, c := range t.root {
		if c != nil {
			touched++
		}
	}
	return touched
}

// rootSnapshotBytes reports the serialized size of the root section.
func (t *Tree) rootSnapshotBytes() uint64 {
	return 8 + t.touchedRootChunks()*(8+4<<rootChunkBits)
}

// writeRootSection writes the touched root chunks, each with its index.
func (t *Tree) writeRootSection(w io.Writer) error {
	if err := arena.WriteU64(w, t.touchedRootChunks()); err != nil {
		return err
	}
	for ci, c := range t.root {
		if c == nil {
			continue
		}
		if err := arena.WriteU64(w, uint64(ci)); err != nil {
			return err
		}
		if err := arena.WriteU32s(w, c); err != nil {
			return err
		}
	}
	return nil
}

// readRootSection restores the root page directory.
func (t *Tree) readRootSection(r io.Reader) error {
	touched, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	for i := uint64(0); i < touched; i++ {
		ci, err := arena.ReadU64(r)
		if err != nil {
			return err
		}
		if ci >= rootChunks || t.root[ci] != nil {
			return fmt.Errorf("kisstree: root chunk %d out of range or repeated", ci)
		}
		c := t.newRootChunk()
		t.root[ci] = c
		if err := arena.ReadU32s(r, c); err != nil {
			return err
		}
	}
	return nil
}

// releaseRoot parks the touched root chunks in the recycler and resets
// the directory.
func (t *Tree) releaseRoot() {
	for _, c := range t.root {
		if c != nil {
			arena.PutChunk(t.cfg.Recycler, c)
		}
	}
	t.root = make([][]uint32, rootChunks)
}

// cnodeSnapshotBytes reports the serialized size of the compressed-node
// section.
func (t *Tree) cnodeSnapshotBytes() uint64 {
	n := uint64(8)
	for i := range t.cnodes {
		n += 16 + 4*uint64(len(t.cnodes[i].entries))
	}
	return n
}

// writeCnodeSection writes each compressed node's bitmap and entries.
func (t *Tree) writeCnodeSection(w io.Writer) error {
	if err := arena.WriteU64(w, uint64(len(t.cnodes))); err != nil {
		return err
	}
	for i := range t.cnodes {
		if err := arena.WriteU64(w, t.cnodes[i].bitmap); err != nil {
			return err
		}
		if err := arena.WriteU64(w, uint64(len(t.cnodes[i].entries))); err != nil {
			return err
		}
		if err := arena.WriteU32s(w, t.cnodes[i].entries); err != nil {
			return err
		}
	}
	return nil
}

// readCnodeSection restores the compressed-node section.
func (t *Tree) readCnodeSection(r io.Reader) error {
	nCN, err := arena.ReadU64(r)
	if err != nil {
		return err
	}
	t.cnodes = make([]cnode, nCN)
	for i := range t.cnodes {
		if t.cnodes[i].bitmap, err = arena.ReadU64(r); err != nil {
			return err
		}
		nEnt, err := arena.ReadU64(r)
		if err != nil {
			return err
		}
		t.cnodes[i].entries = make([]uint32, nEnt)
		if err := arena.ReadU32s(r, t.cnodes[i].entries); err != nil {
			return err
		}
	}
	return nil
}
