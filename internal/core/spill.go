package core

import (
	"io"

	"qppt/internal/spill"
)

// Spill support for intermediate indexes (paper motivation: QPPT builds an
// index per operator, so total intermediate-index footprint — not the base
// tables — caps the runnable scale factor). The index adapters forward the
// trees' storage hooks (package indexfmt), and the executor registers
// every non-base operator output with a plan-scoped spill.Manager when
// Options.MemBudget is set.

// A storedIndex is an index whose storage can spill, be restored by key
// range, and be dropped into the plan recycler when the last consumer is
// done: both tree adapters and the sharded index over them.
type storedIndex interface {
	spill.Freezer
	Recycle()
	Frozen() bool
}

func (p ptIndex) WriteSnapshot(w io.Writer) error { return p.t.WriteSnapshot(w) }
func (p ptIndex) Release()                        { p.t.Release() }
func (p ptIndex) Recycle()                        { p.t.Recycle() }
func (p ptIndex) Frozen() bool                    { return p.t.Frozen() }
func (p ptIndex) ThawRange(f io.ReadSeeker, lo, hi uint64) (int64, bool, error) {
	return p.t.ThawRange(f, lo, hi)
}

func (k kissIndex) WriteSnapshot(w io.Writer) error { return k.t.WriteSnapshot(w) }
func (k kissIndex) Release()                        { k.t.Release() }
func (k kissIndex) Recycle()                        { k.t.Recycle() }
func (k kissIndex) Frozen() bool                    { return k.t.Frozen() }
func (k kissIndex) ThawRange(f io.ReadSeeker, lo, hi uint64) (int64, bool, error) {
	return k.t.ThawRange(f, lo, hi)
}

// WriteSnapshot writes every shard into one stream, in shard order; the
// merge bounds, key ranges and counters stay resident. Because no shard
// detaches until Release, an error midway through the stream leaves every
// shard intact. ThawRange restores the shards in the same order.
func (s *shardedIndex) WriteSnapshot(w io.Writer) error {
	for _, sh := range s.shards {
		if err := sh.(storedIndex).WriteSnapshot(w); err != nil {
			return err
		}
	}
	return nil
}

func (s *shardedIndex) Release() {
	for _, sh := range s.shards {
		sh.(storedIndex).Release()
	}
}

// Frozen reports whether every shard is spilled. A restore from the
// frozen state either brings every shard back or rolls them all back.
func (s *shardedIndex) Frozen() bool {
	for _, sh := range s.shards {
		if !sh.(storedIndex).Frozen() {
			return false
		}
	}
	return true
}

// ThawRange forwards the consumer's range to every shard: a shard whose
// key range misses [lo, hi] restores only its interior and skips all its
// leaf chunks, so the range-restricted restore stays proportional to the
// touched data however the merge sharded it. A mid-stream error on a
// restore from the frozen state releases the shards restored so far, so
// the index reads as frozen again and a later call can retry; on a top-up
// the previously resident portions stay intact, matching the manager's
// resident-on-error handling.
func (s *shardedIndex) ThawRange(f io.ReadSeeker, lo, hi uint64) (int64, bool, error) {
	fresh := s.Frozen()
	var total int64
	full := true
	for i, sh := range s.shards {
		n, shFull, err := sh.(storedIndex).ThawRange(f, lo, hi)
		total += n
		full = full && shFull
		if err != nil {
			if fresh {
				for _, done := range s.shards[:i] {
					done.(storedIndex).Release()
				}
			}
			return total, false, err
		}
	}
	return total, full, nil
}

func (s *shardedIndex) Recycle() {
	for _, sh := range s.shards {
		if st, ok := sh.(storedIndex); ok {
			st.Recycle()
		}
	}
}

// freezerOf returns the index's storage hooks, or nil for index kinds
// that cannot detach their storage (none of the built-in kinds today; the
// check keeps custom Index implementations safely resident).
func freezerOf(idx Index) storedIndex {
	switch v := idx.(type) {
	case *shardedIndex:
		for _, sh := range v.shards {
			if freezerOf(sh) == nil {
				return nil
			}
		}
		return v
	case storedIndex:
		return v
	}
	return nil
}
