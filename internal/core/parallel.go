package core

import (
	"qppt/internal/arena"
	"qppt/internal/duplist"
	"qppt/internal/kisstree"
	"qppt/internal/prefixtree"
	"qppt/internal/spill"
)

// Intra-operator parallelism (paper Section 7).
//
// The paper identifies the prefix tree's deterministic, unbalanced shape
// as the enabler for intra-operator parallelism: because a key's position
// is fixed, the tree splits into disjoint subtrees by key range, and no
// rebalancing can ever move data between partitions mid-scan.
//
// Execution is morsel-driven (see scheduler.go): the operator's input key
// space is split into many small morsels that idle pool workers steal.
// Each pool worker scans its morsels into a private partial output index,
// and the partials are combined by a parallel partition-wise merge: the
// *output* key space is split into disjoint ranges and all partials are
// merged per range concurrently — safe because a key's position in the
// prefix tree is deterministic, so disjoint output ranges never share a
// subtree. Aggregating outputs merge exactly (the fold is applied again
// on insert); plain outputs concatenate their duplicate rows.
//
// Operators opt in through Options.Workers > 1; the default (and the
// paper's evaluation mode) stays single-threaded.

// partitionBounds splits the key space [lo, hi] into `parts` contiguous
// chunks and returns the bounds of chunk `part` (0-based). The split is by
// key *space*, matching the subtree partitioning of an unbalanced trie:
// chunk boundaries align with subtree boundaries, never with data. The
// same function produces both the scan morsels and the merge partitions.
// Chunk sizes differ by at most one key: the first span%parts chunks take
// one extra key. With fewer keys than parts, the trailing chunks are empty
// (ok == false).
func partitionBounds(lo, hi uint64, part, parts int) (uint64, uint64, bool) {
	if lo > hi || parts <= 0 || part >= parts {
		return 0, 0, false
	}
	span := hi - lo + 1 // may overflow to 0 for the full 64-bit space
	if span == 0 {
		// Full key space: split by the top bits instead.
		step := ^uint64(0)/uint64(parts) + 1
		pLo := uint64(part) * step
		pHi := pLo + step - 1
		if part == parts-1 {
			pHi = ^uint64(0)
		}
		return pLo, pHi, true
	}
	p := uint64(part)
	base, rem := span/uint64(parts), span%uint64(parts)
	size := base
	if p < rem {
		size++
	}
	if size == 0 {
		return 0, 0, false
	}
	pLo := lo + p*base + min(p, rem)
	return pLo, pLo + size - 1, true
}

// intersectPred clips a selection predicate (nil = everything) to a key
// partition, returning the ranges a worker must scan. The result is never
// nil: a worker whose partition misses every range gets an empty predicate
// (scan nothing), not a nil one (scan everything).
func intersectPred(pred KeyPred, lo, hi uint64) KeyPred {
	if pred == nil {
		return KeyPred{{Lo: lo, Hi: hi}}
	}
	out := KeyPred{}
	for _, r := range pred {
		l, h := max(r.Lo, lo), min(r.Hi, hi)
		if l <= h {
			out = append(out, KeyRange{Lo: l, Hi: h})
		}
	}
	return out
}

// syncScanKeyRange runs the synchronous index scan restricted to keys in
// [lo, hi], using the native skip-scan kernels where the index kinds allow
// them and the iterate-small/probe-large fallback otherwise.
func syncScanKeyRange(a, b Index, lo, hi uint64, visit func(key uint64, va, vb *duplist.List) bool) bool {
	switch ai := a.(type) {
	case ptIndex:
		if bi, isPT := b.(ptIndex); isPT && ai.t.PrefixLen() == bi.t.PrefixLen() && ai.t.KeyBits() == bi.t.KeyBits() {
			return prefixtree.SyncScanRange(ai.t, bi.t, lo, hi, func(la, lb *prefixtree.Leaf) bool {
				return visit(la.Key, &la.Vals, &lb.Vals)
			})
		}
	case kissIndex:
		if bi, isKiss := b.(kissIndex); isKiss {
			return kisstree.SyncScanRange(ai.t, bi.t, lo, hi, func(la, lb *kisstree.Leaf) bool {
				return visit(la.Key, &la.Vals, &lb.Vals)
			})
		}
	}
	// Mixed kinds: range-scan the smaller index's partition, probe the
	// larger one.
	small, large := a, b
	swapped := false
	if b.Keys() < a.Keys() {
		small, large = b, a
		swapped = true
	}
	return small.Range(lo, hi, func(key uint64, vs *duplist.List) bool {
		vl := large.Lookup(key)
		if vl == nil {
			return true
		}
		if swapped {
			return visit(key, vl, vs)
		}
		return visit(key, vs, vl)
	})
}

// syncScanBounds reports the key interval both indexes can contribute to,
// ok == false when either index is empty or the intervals are disjoint.
func syncScanBounds(a, b Index) (uint64, uint64, bool) {
	aLo, aOK := a.Min()
	bLo, bOK := b.Min()
	if !aOK || !bOK {
		return 0, 0, false
	}
	aHi, _ := a.Max()
	bHi, _ := b.Max()
	lo, hi := max(aLo, bLo), min(aHi, bHi)
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// idxBounds reports an index's key interval, ok == false when empty.
func idxBounds(idx Index) (uint64, uint64, bool) {
	lo, ok := idx.Min()
	if !ok {
		return 0, 0, false
	}
	hi, _ := idx.Max()
	return lo, hi, true
}

// keySpaceMax is the largest representable key for a key width.
func keySpaceMax(bits uint) uint64 {
	if bits == 0 || bits >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<bits - 1
}

// A morsel is one claimable unit of an operator scan: the input keys in
// [lo, hi] (whole == true means the morsel covers the full input, letting
// the operator keep its unclipped fast path), narrowed to the qualifying
// rows whose ordinals fall in rows.
type morsel struct {
	lo, hi uint64
	whole  bool
	rows   rowSlice
}

// A rowSlice selects the qualifying rows of a morsel's key range by
// ordinal in scan order, [from, to); the zero value selects every row.
// Each multiplicity unit of an existence-only input is one row.
type rowSlice struct{ from, to int }

func (r rowSlice) all() bool { return r.to == 0 }

// A morselScan is an operator's morsel-driven input scan: bounds reports
// the morsel interval (ok == false when there is nothing to scan), scan
// feeds one morsel through a worker's pipeline, and rows — set only for
// scans that honour row slices — counts the qualifying rows of a morsel.
// slice reports whether a row split pays for the operator (see
// rowSlicesPay).
type morselScan struct {
	bounds func() (lo, hi uint64, ok bool)
	scan   func(p *pipeline, m morsel)
	rows   func(m morsel) int
	slice  bool
}

// Morsel modes (OperatorStats.MorselMode).
const (
	morselsKeyRange = "key-range"
	morselsRowSlice = "row-slice"
)

// minSliceRows is the smallest row slice a narrow envelope is split into.
// A selection of a few dozen rows stays in one morsel: splitting it costs
// more in per-worker pipelines and partial merges than its probes gain.
const minSliceRows = 64

// splitMorsels divides a scan over [lo, hi] into at most want morsels
// (clipped: [lo, hi] is narrower than the scan's own bounds, so even a
// lone morsel must take the clipped path). The key space splits into
// key-range morsels. When it holds fewer keys than want, a scan that
// honours row slices splits the range's qualifying rows instead, into
// contiguous ordinal slices of at least minSliceRows rows, so a one-key
// envelope still spreads over the pool — or, where a row split does not
// pay, keeps the narrow envelope in one morsel. Scans without row slices
// (the synchronous scan of Join and Intersect) keep key-range morsels.
func splitMorsels(src morselScan, lo, hi uint64, clipped bool, want int) ([]morsel, string) {
	full := morsel{lo: lo, hi: hi, whole: !clipped}
	if want <= 1 {
		return []morsel{full}, morselsKeyRange
	}
	if src.rows != nil && hi-lo < uint64(want-1) {
		n, parts := 0, 1
		if src.slice {
			n = src.rows(full)
			parts = min(want, n/minSliceRows)
		}
		if parts < 2 {
			return []morsel{full}, morselsKeyRange
		}
		ms := make([]morsel, parts)
		for r := range ms {
			ms[r] = full
			ms[r].rows = rowSlice{from: r * n / parts, to: (r + 1) * n / parts}
		}
		return ms, morselsRowSlice
	}
	ms := make([]morsel, 0, want)
	for m := 0; m < want; m++ {
		if mLo, mHi, ok := partitionBounds(lo, hi, m, want); ok {
			ms = append(ms, morsel{lo: mLo, hi: mHi})
		}
	}
	return ms, morselsKeyRange
}

// rowSlicesPay reports whether a row-slice split can pay for an operator
// (or fused chain) whose scan rows flow through links into the output
// top: each row must carry more work than its own output insert — a probe
// by some link other than a Selection, or a fold that keeps the partials
// small. Otherwise a split only moves inserts into partials that the
// merge then inserts all over again.
func rowSlicesPay(links []Operator, top *OutputSpec) bool {
	if top.Fold != nil {
		return true
	}
	for _, l := range links {
		if _, sel := l.(*Selection); !sel {
			return true
		}
	}
	return false
}

// morselCount is the morsel budget of one operator scan: one morsel for a
// serial pool, Workers × MorselsPerWorker otherwise.
func morselCount(ec *ExecContext) int {
	if w := ec.scheduler().Workers(); w > 1 {
		return w * ec.morselsPerWorker()
	}
	return 1
}

// runMorsels drives one operator's scan as work-stealing morsels on the
// plan's shared pool. newPart builds a fresh pipeline + output table pair
// (one per pool worker, created lazily when the worker claims its first
// morsel) whose output index draws chunks from the given recycler — each
// pool worker gets its worker-local pool so partials stay cache-warm and
// uncontended. Each claimed morsel is scanned and then drained through
// the worker's probe stages, so its probes, fan-out and sink feeding run
// on the worker that claimed it; only the sink's insert buffer stays
// batched until finish. The per-worker partial outputs are then combined
// with the parallel partition-wise merge. With a single worker the lone
// partial is the output itself and execution degenerates to the paper's
// single-threaded mode.
func runMorsels(ec *ExecContext, spec *OutputSpec, src morselScan,
	newPart func(spec *OutputSpec, rec *arena.Recycler) (*pipeline, *IndexedTable, error),
) (*IndexedTable, error) {
	sched := ec.scheduler()
	empty := func() (*IndexedTable, error) {
		p, out, err := newPart(spec, ec.rec)
		if err != nil {
			return nil, err
		}
		p.finish()
		ec.noteSink(p)
		return out, nil
	}
	lo, hi, ok := src.bounds()
	if !ok {
		return empty()
	}
	morsels, mode := splitMorsels(src, lo, hi, false, morselCount(ec))
	ec.noteMorselMode(mode)
	pipes := make([]*pipeline, sched.Workers())
	outs := make([]*IndexedTable, len(pipes))
	err := sched.ForEachWorker(len(morsels), func(w, m int) error {
		if err := ec.err(); err != nil {
			return err // cancelled: stop claiming morsels
		}
		p := pipes[w]
		if p == nil {
			specCopy := *spec // private sink per worker partial
			var err error
			p, outs[w], err = newPart(&specCopy, ec.workerRec(w))
			if err != nil {
				return err
			}
			pipes[w] = p
		}
		src.scan(p, morsels[m])
		if err := ec.err(); err != nil {
			return err // the scan itself may have been aborted mid-morsel
		}
		p.drain()
		p.morsels++
		return nil
	})
	if err != nil {
		return nil, err
	}
	var partials []*IndexedTable
	for w, p := range pipes {
		if p == nil {
			continue
		}
		p.finish()
		ec.noteSink(p)
		partials = append(partials, outs[w])
	}
	if len(partials) == 0 {
		return empty()
	}
	return combinePartials(ec, spec, partials)
}

// combinePartials turns an operator's per-worker partial outputs into its
// output. A lone partial already is the complete output (one worker
// claimed every morsel); otherwise the partials merge, and every partial
// the output does not reuse is dead the moment the merge re-inserted its
// rows — with a recycler its chunks immediately feed the next allocations
// instead of the GC.
func combinePartials(ec *ExecContext, spec *OutputSpec, partials []*IndexedTable) (*IndexedTable, error) {
	if len(partials) == 1 {
		return partials[0], nil
	}
	out, err := mergePartialsParallel(ec, spec, partials)
	if err != nil {
		return nil, err
	}
	if ec.rec != nil {
		for _, p := range partials {
			if rc, ok := p.Idx.(storedIndex); ok && p != out {
				rc.Recycle()
			}
		}
	}
	return out, nil
}

// mergeRangeInto folds the [lo, hi] slice of every partial into idx, in
// partial order. Aggregating outputs merge exactly because the fold is
// applied again on insert; plain outputs concatenate their duplicate rows.
// The merge polls ec on the abortTickMask cadence (one check per 1024
// entries) and returns the cancellation error — a large merge range must
// not keep folding rows into an output nobody will read. ec may be nil
// (non-cancellable).
func mergeRangeInto(ec *ExecContext, idx Index, spec *OutputSpec, partials []*IndexedTable, lo, hi uint64) error {
	keys := make([]uint64, 0, DefaultBufferSize)
	rows := make([][]uint64, 0, DefaultBufferSize)
	ticks, cancelled := 0, false
	poll := func() bool { // reports whether the merge must stop
		ticks++
		if ticks&abortTickMask != 0 {
			return cancelled
		}
		if ec != nil && ec.err() != nil {
			cancelled = true
		}
		return cancelled
	}
	flush := func() {
		if len(keys) == 0 {
			return
		}
		if len(spec.Cols) == 0 {
			idx.InsertBatch(keys, nil)
		} else {
			idx.InsertBatch(keys, rows)
		}
		keys, rows = keys[:0], rows[:0]
	}
	for _, p := range partials {
		if cancelled {
			break
		}
		p.Idx.Range(lo, hi, func(k uint64, vals *duplist.List) bool {
			if poll() {
				return false
			}
			if len(spec.Cols) == 0 {
				for n := 0; n < vals.Len(); n++ {
					keys = append(keys, k)
					if len(keys) == cap(keys) {
						flush()
					}
				}
				return true
			}
			vals.Scan(func(row []uint64) bool {
				keys = append(keys, k)
				rows = append(rows, row)
				if len(keys) == cap(keys) {
					flush()
				}
				return true
			})
			return true
		})
		flush() // rows alias partial memory; flush before moving on
	}
	flush()
	if cancelled {
		return ec.err()
	}
	return nil
}

// newOutputIndex creates the output index structure an OutputSpec asks
// for, drawing chunk storage from the plan recycler when one is active.
func newOutputIndex(spec *OutputSpec, rec *arena.Recycler) Index {
	return NewIndex(IndexConfig{
		KeyBits:         spec.Key.TotalBits(),
		PayloadWidth:    len(spec.Cols),
		Fold:            spec.Fold,
		ForcePrefixTree: spec.ForcePrefixTree,
		CompressKISS:    spec.CompressKISS,
		PrefixLen:       spec.PrefixLen,
		Recycler:        rec,
	})
}

// mergePartials is the sequential merge baseline: it folds per-worker
// partial outputs into one fresh output index by re-insertion, scanning
// the partials one after another over the full key space, and leaves the
// partials untouched — the reference the merge tests and benchmarks
// compare mergePartialsParallel against (execution itself merges small
// outputs with mergeIntoFirst). ec may be nil (non-cancellable); a
// cancelled merge returns the context's error.
func mergePartials(ec *ExecContext, spec *OutputSpec, partials []*IndexedTable, rec *arena.Recycler) (*IndexedTable, error) {
	idx := newOutputIndex(spec, rec)
	if err := mergeRangeInto(ec, idx, spec, partials, 0, keySpaceMax(spec.Key.TotalBits())); err != nil {
		return nil, err
	}
	return NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx), nil
}

// mergeIntoFirst is the small-output merge: it folds partials[1:] into
// partials[0] by re-insertion and returns partials[0] as the output, so
// the merge builds no fresh index and re-inserts only the other
// partials' rows. Duplicate rows keep partial order, as in mergePartials.
func mergeIntoFirst(ec *ExecContext, spec *OutputSpec, partials []*IndexedTable) (*IndexedTable, error) {
	out := partials[0]
	if err := mergeRangeInto(ec, out.Idx, spec, partials[1:], 0, keySpaceMax(spec.Key.TotalBits())); err != nil {
		return nil, err
	}
	return out, nil
}

// parallelMergeMinKeys gates the parallel merge: below this many output
// rows the sequential re-insert wins on setup cost.
const parallelMergeMinKeys = 4096

// mergePartialsParallel is the parallel partition-wise merge: it splits
// the output key space into disjoint ranges (one per merge task, aligned
// to prefix-subtree boundaries like the scan morsels) and merges all
// partials per range concurrently on the shared pool, producing a
// range-sharded output index. Disjoint output ranges never touch the same
// subtree, so the per-range merge tasks need no synchronization. The only
// error a merge task can return is the query context's cancellation.
// Small outputs (or a serial pool) take mergeIntoFirst instead, so the
// returned table may be partials[0] itself.
func mergePartialsParallel(ec *ExecContext, spec *OutputSpec, partials []*IndexedTable) (*IndexedTable, error) {
	sched := ec.scheduler()
	total := 0
	for _, p := range partials {
		total += p.Idx.Rows()
	}
	if !sched.parallel() || total < parallelMergeMinKeys {
		return mergeIntoFirst(ec, spec, partials)
	}
	var lo, hi uint64
	any := false
	for _, p := range partials {
		l, ok := p.Idx.Min()
		if !ok {
			continue
		}
		h, _ := p.Idx.Max()
		if !any || l < lo {
			lo = l
		}
		if !any || h > hi {
			hi = h
		}
		any = true
	}
	if !any {
		return mergeIntoFirst(ec, spec, partials)
	}
	// Two ranges per worker give the claiming loops room to balance ranges
	// of uneven density without fragmenting the output into many shards.
	parts := sched.Workers() * 2
	var los, his []uint64
	for r := 0; r < parts; r++ {
		rLo, rHi, ok := partitionBounds(lo, hi, r, parts)
		if !ok {
			continue
		}
		los = append(los, rLo)
		his = append(his, rHi)
	}
	if len(los) < 2 {
		return mergeIntoFirst(ec, spec, partials)
	}
	// Under a memory budget the worker partials are spillable state like
	// any other intermediate: register them with the manager (all or
	// nothing — an unfreezable index kind keeps every partial resident)
	// so a large merge does not hold the full partial population resident.
	// Each merge task then pins just its key range of every partial, in
	// registration (Seq) order — ordered acquisition keeps the pin waits
	// cycle-free across concurrent merge tasks and operator resolves.
	var phs []*spill.Handle
	if ec.spill != nil {
		phs = make([]*spill.Handle, len(partials))
		for i, p := range partials {
			fz := freezerOf(p.Idx)
			if fz == nil {
				for _, h := range phs[:i] {
					h.Drop()
				}
				phs = nil
				break
			}
			phs[i] = ec.spill.Register("partial:"+spec.Name, fz, p.Idx.Bytes)
		}
	}
	shards := make([]Index, len(los))
	err := sched.ForEachWorker(len(shards), func(_, r int) error {
		if err := ec.err(); err != nil {
			return err // cancelled: stop claiming merge ranges
		}
		for i, h := range phs {
			//qpptvet:ignore pinbalance loop pins are balanced by the Unpin loop after the merge and the phs[:i] cleanup on error
			if err := h.PinRangeCtx(ec.ctx, los[r], his[r]); err != nil {
				for _, ph := range phs[:i] {
					ph.Unpin()
				}
				return err
			}
		}
		idx := newOutputIndex(spec, ec.rec)
		mergeErr := mergeRangeInto(ec, idx, spec, partials, los[r], his[r])
		for _, h := range phs {
			h.Unpin()
		}
		if mergeErr != nil {
			return mergeErr
		}
		shards[r] = idx
		return nil
	})
	if phs != nil {
		// The partials die with this merge; fold their freeze/thaw
		// traffic into the operator's statistics before dropping them.
		spills, restores := 0, 0
		for _, h := range phs {
			s, r := h.Counts()
			spills, restores = spills+s, restores+r
			h.Drop()
		}
		ec.noteSpill(spills, restores)
	}
	if err != nil {
		return nil, err
	}
	// Extend the edge shards so the sharded index routes the full key
	// space, not just the observed interval.
	los[0] = 0
	his[len(his)-1] = keySpaceMax(spec.Key.TotalBits())
	sh := newShardedIndex(shards, los, his, spec.Key.TotalBits())
	return NewIndexedTable(spec.Name, spec.Key, spec.Cols, sh), nil
}
