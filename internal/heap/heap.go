// Package heap implements slotted-page heap files, the base storage of
// every relation: user tables, the de-normalized R_SummaryStorage side
// tables, and the raw-annotation store. Records are addressed by RID
// (page, slot); page accesses are charged to a pager.Accountant so that
// access-path costs are observable.
//
// When the accountant has a buffer pool attached, pages live in pool
// frames instead of the file struct: every access pins the frame for the
// duration of the touch (cursors keep their current page pinned between
// Next calls and release it on advance or Close), mutations mark the
// frame dirty, and evicted pages round-trip through the pool's backing
// store. Without a pool the file keeps its pages resident directly and
// behaves exactly as before — only logical I/O is charged either way, at
// the same call sites, so access-path counts are identical in both modes.
//
// When the accountant additionally carries an MVCC epoch clock, the file
// versions its pages for snapshot reads: every page carries the epoch
// stamp of the mutation that produced it, the writer clones a page
// copy-on-write before the first mutation of a new epoch (pushing the
// previous version onto a per-page overlay chain), and AsOf returns a
// read-only view that resolves each page to the version visible at its
// snapshot epoch — without taking the writer's lock. Version chains and
// the page-count metadata chain are pruned as the clock's minimum pinned
// epoch advances. Without a clock, behavior is byte-identical to the
// unversioned file.
package heap

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mvcc"
	"repro/internal/pager"
)

// RID is a record's physical address: the heap location returned by the
// engine-internal diskTupleLoc() function and stored in Summary-BTree
// backward pointers.
type RID struct {
	Page int32
	Slot int32
}

// Encode packs the RID into an int64 for storage as an index payload.
func (r RID) Encode() int64 { return int64(r.Page)<<32 | int64(uint32(r.Slot)) }

// DecodeRID unpacks an int64 produced by Encode.
func DecodeRID(v int64) RID {
	return RID{Page: int32(v >> 32), Slot: int32(uint32(v))}
}

// String renders "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// record is one slot: the record's OID, its payload, and a liveness flag.
type record[T any] struct {
	oid  int64
	val  T
	live bool
}

// page is one slotted page. stamp is the epoch of the mutation that
// produced this version of the page (zero when unversioned); it is
// written before the page becomes reachable and never rewritten — a
// mutation in a later epoch clones the page instead.
type page[T any] struct {
	slots []record[T]
	nLive int
	stamp uint64
}

// pageWire is the serialized form of a page. Only live slots carry a
// value: gob cannot encode nil pointers, and tombstoned slots of pointer
// payload types hold exactly that, so dead slots are reconstructed as
// zero values from the liveness bitmap on decode.
type pageWire[T any] struct {
	OIDs  []int64
	Live  []bool
	Vals  []T // live slots only, in slot order
	Stamp uint64
}

// pageCodec serializes heap pages for buffer-pool write-back.
type pageCodec[T any] struct{}

func (pageCodec[T]) EncodePage(v any) ([]byte, error) {
	p := v.(*page[T])
	w := pageWire[T]{
		OIDs:  make([]int64, len(p.slots)),
		Live:  make([]bool, len(p.slots)),
		Stamp: p.stamp,
	}
	for i := range p.slots {
		w.OIDs[i] = p.slots[i].oid
		w.Live[i] = p.slots[i].live
		if p.slots[i].live {
			w.Vals = append(w.Vals, p.slots[i].val)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (pageCodec[T]) DecodePage(data []byte) (any, error) {
	var w pageWire[T]
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, err
	}
	// Structural validation: a torn or bit-flipped page image that still
	// gob-decodes must not be installed silently — the inconsistency
	// would otherwise surface later as a wrong answer instead of an
	// integrity error here.
	if len(w.Live) != len(w.OIDs) {
		return nil, fmt.Errorf("heap: corrupt page image: %d oids but %d liveness flags", len(w.OIDs), len(w.Live))
	}
	live := 0
	for _, l := range w.Live {
		if l {
			live++
		}
	}
	if live != len(w.Vals) {
		return nil, fmt.Errorf("heap: corrupt page image: %d live slots but %d values", live, len(w.Vals))
	}
	p := &page[T]{slots: make([]record[T], len(w.OIDs)), stamp: w.Stamp}
	vi := 0
	for i := range w.OIDs {
		p.slots[i].oid = w.OIDs[i]
		if w.Live[i] {
			p.slots[i].live = true
			p.slots[i].val = w.Vals[vi]
			vi++
			p.nLive++
		}
	}
	return p, nil
}

// pageVer is one superseded page version: p was the page's current
// version for epochs in [p.stamp, until).
type pageVer[T any] struct {
	until uint64
	p     *page[T]
}

// fileMeta is the file's per-epoch shape: the page count and live-record
// count as of the mutation stamped stamp. The chain (prev) lets a
// snapshot view recover the bounds it must scan within; it is pruned as
// the minimum pinned epoch advances. Nodes are immutable except for the
// atomic prev link, which pruning cuts.
type fileMeta struct {
	stamp    uint64
	numPages int
	nLive    int
	prev     atomic.Pointer[fileMeta]
}

// verState is the version store shared between a writer file and all of
// its snapshot views: superseded page versions, the resident pages of an
// unpooled file (readers access them without the writer's lock, so they
// live behind verState's mutex rather than in the File), and the
// metadata chain.
type verState[T any] struct {
	mu      sync.RWMutex
	overlay map[int32][]pageVer[T] // superseded versions, newest last
	pages   []*page[T]             // unpooled resident pages (nil when pooled)
	meta    atomic.Pointer[fileMeta]
}

// File is a heap file of records of type T. Records are identified
// logically by OID (assigned by the caller) and physically by RID. The
// zero File is not usable; construct with NewFile. File is not safe for
// concurrent mutation; with a clock attached, any number of AsOf views
// may read concurrently with the (single) mutator.
type File[T any] struct {
	acct    *pager.Accountant
	pageCap int

	// pool/space route page access through buffer-pool frames when the
	// accountant has a pool attached; used tracks each page's slot count
	// so capacity checks never need to pin a frame. Without a pool,
	// pages holds the file's pages resident and used is unused (when a
	// clock is attached, resident pages move into v.pages instead so
	// lock-free readers can reach them safely).
	pool  *pager.BufferPool
	space int32
	used  []int32
	pages []*page[T]

	// clock/v enable MVCC page versioning; view/snap mark a read-only
	// snapshot view produced by AsOf.
	clock *mvcc.Clock
	v     *verState[T]
	view  bool
	snap  uint64

	nLive int
	// freePages lists pages with spare capacity: a page is re-offered
	// after a delete trims tombstoned slots from its tail, and popped
	// once it fills back up. freeSet dedups offers.
	freePages []int32
	freeSet   map[int32]bool
}

// NewFile builds a heap file whose pages hold pageCap records each
// (the paper's "disk page size in records" parameter B). If acct has a
// buffer pool attached, the file registers its own page space with it;
// if acct carries an MVCC clock, the file versions its pages for
// snapshot reads and registers a version pruner with the clock.
func NewFile[T any](acct *pager.Accountant, pageCap int) *File[T] {
	if pageCap <= 0 {
		pageCap = 64
	}
	f := &File[T]{acct: acct, pageCap: pageCap}
	if pool := acct.Pool(); pool != nil {
		f.pool = pool
		f.space = pool.NewSpace(pageCodec[T]{})
	}
	if c := acct.Clock(); c != nil {
		f.clock = c
		f.v = &verState[T]{overlay: make(map[int32][]pageVer[T])}
		f.v.meta.Store(&fileMeta{stamp: c.Stamp()})
		c.AddPruner(f.pruneVersions)
	}
	return f
}

func (f *File[T]) pooled() bool    { return f.pool != nil }
func (f *File[T]) versioned() bool { return f.v != nil }

// AsOf returns a read-only view of the file frozen at epoch snap. The
// view shares the file's version store and resolves every page to the
// version visible at snap; it takes no lock against the writer. The
// file must have been built against an accountant with a clock, and the
// caller must hold a clock pin on snap for the view's lifetime.
func (f *File[T]) AsOf(snap uint64) *File[T] {
	g := *f
	g.view = true
	g.snap = snap
	return &g
}

// pin returns pid's page, pinned in its frame; callers must unpin.
func (f *File[T]) pin(pid int32) *page[T] {
	return f.pool.Get(f.space, int64(pid)).(*page[T])
}

func (f *File[T]) unpin(pid int32, dirty bool) {
	f.pool.Unpin(f.space, int64(pid), dirty)
}

// stampNew returns the epoch stamp for a page the writer creates now.
func (f *File[T]) stampNew() uint64 {
	if f.versioned() {
		return f.clock.Stamp()
	}
	return 0
}

func (f *File[T]) numPages() int {
	if f.pooled() {
		return len(f.used)
	}
	if f.versioned() {
		f.v.mu.RLock()
		n := len(f.v.pages)
		f.v.mu.RUnlock()
		return n
	}
	return len(f.pages)
}

// pageBound returns the exclusive page-number bound for reads: the
// view's frozen page count, or the live count for the writer.
func (f *File[T]) pageBound() int {
	if f.view {
		return f.viewMeta().numPages
	}
	return f.numPages()
}

// slotsOn returns pid's slot count without touching the page itself
// (pooled mode) — writer-side only; views bound slots by the resolved
// version's own length.
func (f *File[T]) slotsOn(pid int32) int {
	if f.pooled() {
		return int(f.used[pid])
	}
	return len(f.residentPage(pid).slots)
}

// residentPage returns pid's current page in unpooled mode.
func (f *File[T]) residentPage(pid int32) *page[T] {
	if f.versioned() {
		f.v.mu.RLock()
		p := f.v.pages[pid]
		f.v.mu.RUnlock()
		return p
	}
	return f.pages[pid]
}

// setMeta publishes the writer's current page/record counts into the
// metadata chain at the in-progress epoch's stamp; consecutive updates
// within one epoch replace the head in place.
func (f *File[T]) setMeta() {
	if !f.versioned() {
		return
	}
	st := f.clock.Stamp()
	head := f.v.meta.Load()
	m := &fileMeta{stamp: st, numPages: f.numPages(), nLive: f.nLive}
	if head != nil {
		if head.stamp == st {
			m.prev.Store(head.prev.Load())
		} else {
			m.prev.Store(head)
		}
	}
	f.v.meta.Store(m)
}

// viewMeta resolves the metadata visible at the view's snapshot.
func (f *File[T]) viewMeta() *fileMeta {
	for m := f.v.meta.Load(); m != nil; m = m.prev.Load() {
		if m.stamp <= f.snap {
			return m
		}
	}
	return &fileMeta{} // before the file's first epoch: empty
}

// writable returns pid's current page ready for in-place mutation,
// cloning it copy-on-write first when its current version belongs to an
// earlier epoch that snapshot readers may still resolve. In pooled mode
// the returned page is pinned; the caller unpins when done.
func (f *File[T]) writable(pid int32) *page[T] {
	if f.pooled() {
		p := f.pin(pid)
		if f.versioned() {
			if st := f.clock.Stamp(); p.stamp != st {
				cl := f.clonePage(p, st)
				// Publish the superseded version before swapping the frame
				// value, so a reader that sees the clone finds the old
				// version already on the overlay.
				f.v.mu.Lock()
				f.v.overlay[pid] = append(f.v.overlay[pid], pageVer[T]{until: st, p: p})
				f.v.mu.Unlock()
				f.pool.SetValue(f.space, int64(pid), cl)
				return cl
			}
		}
		return p
	}
	if f.versioned() {
		p := f.residentPage(pid)
		if st := f.clock.Stamp(); p.stamp != st {
			cl := f.clonePage(p, st)
			f.v.mu.Lock()
			f.v.overlay[pid] = append(f.v.overlay[pid], pageVer[T]{until: st, p: p})
			f.v.pages[pid] = cl
			f.v.mu.Unlock()
			return cl
		}
		return p
	}
	return f.pages[pid]
}

func (f *File[T]) clonePage(p *page[T], st uint64) *page[T] {
	return &page[T]{slots: append([]record[T](nil), p.slots...), nLive: p.nLive, stamp: st}
}

// viewPage resolves pid's version visible at the view's snapshot. The
// current version comes back pinned in pooled mode (pinned=true; the
// caller must unpin); superseded versions are immutable plain objects
// and need no pin. Returns nil for a page with no version at the
// snapshot (defensive; viewMeta bounds should exclude it).
func (f *File[T]) viewPage(pid int32) (p *page[T], pinned bool) {
	if f.pooled() {
		p = f.pin(pid)
		if p.stamp <= f.snap {
			return p, true
		}
		f.unpin(pid, false)
	} else {
		f.v.mu.RLock()
		p = f.v.pages[pid]
		f.v.mu.RUnlock()
		if p.stamp <= f.snap {
			return p, false
		}
	}
	return f.overlayPage(pid), false
}

// overlayPage finds the newest superseded version of pid visible at the
// view's snapshot.
func (f *File[T]) overlayPage(pid int32) *page[T] {
	f.v.mu.RLock()
	defer f.v.mu.RUnlock()
	vs := f.v.overlay[pid]
	for i := len(vs) - 1; i >= 0; i-- {
		if vs[i].p.stamp <= f.snap {
			return vs[i].p
		}
	}
	return nil
}

// fetchPage returns pid's page for reading — the snapshot-resolved
// version on a view, the current version otherwise. pinned reports
// whether the caller must unpin it.
func (f *File[T]) fetchPage(pid int32) (p *page[T], pinned bool) {
	if f.view {
		return f.viewPage(pid)
	}
	if f.pooled() {
		return f.pin(pid), true
	}
	return f.residentPage(pid), false
}

// pruneVersions discards page versions and metadata no pinned epoch can
// still resolve (every version with until <= min, every meta node older
// than the newest one at or below min). Registered with the clock;
// min only advances, but invocations may arrive out of order — removal
// by threshold is monotone-safe either way.
func (f *File[T]) pruneVersions(min uint64) {
	for m := f.v.meta.Load(); m != nil; m = m.prev.Load() {
		if m.stamp <= min {
			m.prev.Store(nil)
			break
		}
	}
	f.v.mu.Lock()
	for pid, vs := range f.v.overlay {
		i := 0
		for i < len(vs) && vs[i].until <= min {
			i++
		}
		if i == len(vs) {
			delete(f.v.overlay, pid)
		} else if i > 0 {
			f.v.overlay[pid] = vs[i:]
		}
	}
	f.v.mu.Unlock()
}

// Insert appends a record and returns its RID. The page written is
// charged as one page write.
func (f *File[T]) Insert(oid int64, val T) RID {
	pid, fresh := f.pageWithSpace()
	rec := record[T]{oid: oid, val: val, live: true}
	var slot int32
	if f.pooled() {
		var p *page[T]
		if fresh {
			p = &page[T]{stamp: f.stampNew()}
			f.pool.NewPage(f.space, int64(pid), p)
		} else {
			p = f.writable(pid)
		}
		p.slots = append(p.slots, rec)
		p.nLive++
		slot = int32(len(p.slots) - 1)
		f.used[pid] = int32(len(p.slots))
		f.unpin(pid, true)
	} else {
		p := f.writable(pid)
		p.slots = append(p.slots, rec)
		p.nLive++
		slot = int32(len(p.slots) - 1)
	}
	f.nLive++
	f.acct.Write(1)
	f.setMeta()
	return RID{Page: pid, Slot: slot}
}

// pageWithSpace picks the page the next insert lands on: a re-offered
// page with spare capacity, then the last page, then a fresh page
// (fresh=true means the caller must materialize it).
func (f *File[T]) pageWithSpace() (pid int32, fresh bool) {
	for len(f.freePages) > 0 {
		pid := f.freePages[len(f.freePages)-1]
		if f.slotsOn(pid) < f.pageCap {
			return pid, false
		}
		f.freePages = f.freePages[:len(f.freePages)-1]
		delete(f.freeSet, pid)
	}
	if n := f.numPages(); n > 0 && f.slotsOn(int32(n-1)) < f.pageCap {
		return int32(n - 1), false
	}
	if f.pooled() {
		f.used = append(f.used, 0)
		return int32(len(f.used) - 1), true
	}
	if f.versioned() {
		np := &page[T]{stamp: f.stampNew()}
		f.v.mu.Lock()
		f.v.pages = append(f.v.pages, np)
		n := len(f.v.pages)
		f.v.mu.Unlock()
		return int32(n - 1), false
	}
	f.pages = append(f.pages, &page[T]{})
	return int32(len(f.pages) - 1), false
}

// Get reads the record at rid, charging one page read.
func (f *File[T]) Get(rid RID) (oid int64, val T, ok bool) {
	var zero T
	if f.view {
		return f.getView(rid)
	}
	if rid.Page < 0 || int(rid.Page) >= f.numPages() {
		return 0, zero, false
	}
	if rid.Slot < 0 || int(rid.Slot) >= f.slotsOn(rid.Page) {
		return 0, zero, false
	}
	f.acct.Read(1)
	var rec record[T]
	if f.pooled() {
		p := f.pin(rid.Page)
		rec = p.slots[rid.Slot]
		f.unpin(rid.Page, false)
	} else {
		rec = f.residentPage(rid.Page).slots[rid.Slot]
	}
	if !rec.live {
		return 0, zero, false
	}
	return rec.oid, rec.val, true
}

// getView is Get against a snapshot view: page bounds come from the
// frozen metadata and the slot bound from the resolved version itself.
// (A slot-out-of-range probe touches the pool's hit/miss counters here
// where the writer path's capacity table avoids it — invalid-RID probes
// are not on any measured path.)
func (f *File[T]) getView(rid RID) (oid int64, val T, ok bool) {
	var zero T
	if rid.Page < 0 || int(rid.Page) >= f.viewMeta().numPages {
		return 0, zero, false
	}
	p, pinned := f.viewPage(rid.Page)
	if p == nil || rid.Slot < 0 || int(rid.Slot) >= len(p.slots) {
		if pinned {
			f.unpin(rid.Page, false)
		}
		return 0, zero, false
	}
	f.acct.Read(1)
	rec := p.slots[rid.Slot]
	if pinned {
		f.unpin(rid.Page, false)
	}
	if !rec.live {
		return 0, zero, false
	}
	return rec.oid, rec.val, true
}

// Update replaces the record at rid in place, charging one page read and
// one page write.
func (f *File[T]) Update(rid RID, val T) bool {
	if rid.Page < 0 || int(rid.Page) >= f.numPages() {
		return false
	}
	if rid.Slot < 0 || int(rid.Slot) >= f.slotsOn(rid.Page) {
		return false
	}
	p := f.writable(rid.Page)
	if !p.slots[rid.Slot].live {
		if f.pooled() {
			f.unpin(rid.Page, false)
		}
		return false
	}
	f.acct.Read(1)
	f.acct.Write(1)
	p.slots[rid.Slot].val = val
	if f.pooled() {
		f.unpin(rid.Page, true)
	}
	return true
}

// Delete tombstones the record at rid, charging one page read and write.
// Live RIDs stay stable, but tombstoned slots at the page's tail are
// trimmed so later inserts can reuse them, and the page is re-offered to
// the free list when it has spare capacity — under insert/delete churn
// the file's page count stays bounded instead of growing monotonically.
func (f *File[T]) Delete(rid RID) bool {
	if rid.Page < 0 || int(rid.Page) >= f.numPages() {
		return false
	}
	if rid.Slot < 0 || int(rid.Slot) >= f.slotsOn(rid.Page) {
		return false
	}
	p := f.writable(rid.Page)
	if !p.slots[rid.Slot].live {
		if f.pooled() {
			f.unpin(rid.Page, false)
		}
		return false
	}
	f.acct.Read(1)
	f.acct.Write(1)
	f.tombstone(p, rid.Slot)
	if f.pooled() {
		f.used[rid.Page] = int32(len(p.slots))
		f.unpin(rid.Page, true)
	}
	f.offerFree(rid.Page)
	f.setMeta()
	return true
}

// tombstone kills one slot and trims any dead run off the page's tail so
// those slot numbers become reusable.
func (f *File[T]) tombstone(p *page[T], slot int32) {
	p.slots[slot] = record[T]{}
	p.nLive--
	f.nLive--
	n := len(p.slots)
	for n > 0 && !p.slots[n-1].live {
		n--
	}
	for i := n; i < len(p.slots); i++ {
		p.slots[i] = record[T]{}
	}
	p.slots = p.slots[:n]
}

// offerFree re-offers pid to the insert path when it has spare capacity
// and is not already on the free list.
func (f *File[T]) offerFree(pid int32) {
	if f.slotsOn(pid) >= f.pageCap || f.freeSet[pid] {
		return
	}
	if f.freeSet == nil {
		f.freeSet = make(map[int32]bool)
	}
	f.freeSet[pid] = true
	f.freePages = append(f.freePages, pid)
}

// Scan iterates all live records in physical order, charging one page
// read per visited page. Iteration stops early when fn returns false.
func (f *File[T]) Scan(fn func(rid RID, oid int64, val T) bool) {
	bound := f.pageBound()
	for pi := 0; pi < bound; pi++ {
		f.acct.Read(1)
		if !f.scanPage(int32(pi), fn) {
			return
		}
	}
}

// scanPage visits pid's live slots with the page pinned for the duration.
func (f *File[T]) scanPage(pid int32, fn func(RID, int64, T) bool) bool {
	p, pinned := f.fetchPage(pid)
	if pinned {
		defer f.unpin(pid, false)
	}
	if p == nil {
		return true
	}
	for si := range p.slots {
		rec := &p.slots[si]
		if !rec.live {
			continue
		}
		if !fn(RID{Page: pid, Slot: int32(si)}, rec.oid, rec.val) {
			return false
		}
	}
	return true
}

// FetchMany visits the records at the given RIDs, grouping consecutive
// same-page RIDs so each group costs one page read and one frame pin —
// the batched (bitmap-style) dereference path for index scans. Callers
// wanting minimal I/O sort the RIDs into page order first; FetchMany
// itself preserves the given order, so it also serves order-preserving
// fetches (each page run then has length 1 and the cost matches per-RID
// Get exactly). Out-of-range and tombstoned RIDs are skipped without
// calling fn; returning false from fn stops the fetch. The number of
// page reads charged (= pages pinned) is returned.
func (f *File[T]) FetchMany(rids []RID, fn func(rid RID, oid int64, val T) bool) int {
	reads := 0
	bound := f.pageBound()
	for i := 0; i < len(rids); {
		pid := rids[i].Page
		j := i
		for j < len(rids) && rids[j].Page == pid {
			j++
		}
		if pid < 0 || int(pid) >= bound {
			i = j
			continue
		}
		f.acct.Read(1)
		reads++
		p, pinned := f.fetchPage(pid)
		stop := false
		if p != nil {
			for _, rid := range rids[i:j] {
				if rid.Slot < 0 || int(rid.Slot) >= len(p.slots) {
					continue
				}
				rec := &p.slots[rid.Slot]
				if !rec.live {
					continue
				}
				if !fn(rid, rec.oid, rec.val) {
					stop = true
					break
				}
			}
		}
		if pinned {
			f.unpin(pid, false)
		}
		if stop {
			break
		}
		i = j
	}
	return reads
}

// Prefetch hints the buffer pool to warm the given pages ahead of a
// page-ordered fetch. No logical reads are charged (the fetch itself
// charges them on arrival); without a pool every page is already
// resident and this is a no-op.
func (f *File[T]) Prefetch(pids []int32) {
	if !f.pooled() {
		return
	}
	bound := f.pageBound()
	pages := make([]int64, 0, len(pids))
	for _, pid := range pids {
		if pid >= 0 && int(pid) < bound {
			pages = append(pages, int64(pid))
		}
	}
	f.pool.Prefetch(f.space, pages)
}

// Release drops the file's pages from the buffer pool (no-op without a
// pool). The file must not be used afterwards. With a clock attached
// the drop is deferred until no pinned epoch can still resolve the
// file's pages through a snapshot view.
func (f *File[T]) Release() {
	if !f.pooled() {
		return
	}
	if f.versioned() {
		pool, space := f.pool, f.space
		f.clock.Retire(func() { pool.DropSpace(space) })
		return
	}
	f.pool.DropSpace(f.space)
}

// Cursor is a pull-style iterator over a file's live records, charging
// one page read per visited page. Mutating the file invalidates open
// cursors (snapshot views from AsOf are immune: their cursors resolve
// page versions frozen at the view's epoch). Reads are pure, so any
// number of cursors may run concurrently as long as the file is not
// mutated — with a buffer pool each cursor pins its current page
// independently, so callers must Close cursors they abandon before
// exhaustion.
type Cursor[T any] struct {
	f        *File[T]
	page     int
	end      int // exclusive page bound
	slot     int
	readPage bool
	cur      *page[T] // current page, pinned while pinned=true
	pinned   bool
}

// Cursor returns a cursor positioned before the first record.
func (f *File[T]) Cursor() *Cursor[T] { return &Cursor[T]{f: f, end: f.pageBound()} }

// RangeCursor returns a cursor over the half-open page range
// [startPage, endPage), clamped to the file. Consecutive ranges
// produced by splitting [0, Pages()) partition the file: every live
// record is visited by exactly one cursor, in the same global order a
// full Cursor would use — the basis of the executor's parallel scan.
func (f *File[T]) RangeCursor(startPage, endPage int) *Cursor[T] {
	if startPage < 0 {
		startPage = 0
	}
	if bound := f.pageBound(); endPage > bound {
		endPage = bound
	}
	return &Cursor[T]{f: f, page: startPage, end: endPage}
}

// Next advances to the next live record, returning ok=false at the end.
func (c *Cursor[T]) Next() (rid RID, oid int64, val T, ok bool) {
	ok = c.Fill(1, func(r RID, o int64, v T) { rid, oid, val = r, o, v }) == 1
	return rid, oid, val, ok
}

// Fill advances over up to max live records, calling yield with each,
// and returns how many it visited — Next for a batch, resolving each
// page once per page instead of once per record. A page is read (and
// counted) when the cursor first enters it, exactly as with Next.
func (c *Cursor[T]) Fill(max int, yield func(rid RID, oid int64, val T)) int {
	n := 0
	for n < max && c.page < c.end {
		if !c.readPage {
			c.f.acct.Read(1)
			c.readPage = true
		}
		if p := c.curPage(); p != nil {
			for c.slot < len(p.slots) && n < max {
				rec := &p.slots[c.slot]
				c.slot++
				if rec.live {
					yield(RID{Page: int32(c.page), Slot: int32(c.slot - 1)}, rec.oid, rec.val)
					n++
				}
			}
			if n == max {
				return n
			}
		}
		c.releasePage()
		c.page++
		c.slot = 0
		c.readPage = false
	}
	return n
}

func (c *Cursor[T]) curPage() *page[T] {
	if c.f.view {
		if c.cur == nil && !c.pinned {
			c.cur, c.pinned = c.f.viewPage(int32(c.page))
		}
		return c.cur
	}
	if !c.f.pooled() {
		return c.f.residentPage(int32(c.page))
	}
	if !c.pinned {
		c.cur = c.f.pin(int32(c.page))
		c.pinned = true
	}
	return c.cur
}

func (c *Cursor[T]) releasePage() {
	if c.pinned {
		c.f.unpin(int32(c.page), false)
		c.pinned = false
	}
	c.cur = nil
}

// Close releases the cursor's pinned page, if any. It is safe to call
// repeatedly and on exhausted cursors; exhausted cursors release their
// last page automatically.
func (c *Cursor[T]) Close() { c.releasePage() }

// Len returns the number of live records.
func (f *File[T]) Len() int {
	if f.view {
		return f.viewMeta().nLive
	}
	return f.nLive
}

// Pages returns the number of allocated pages.
func (f *File[T]) Pages() int { return f.pageBound() }

// PageCap returns the per-page record capacity (B).
func (f *File[T]) PageCap() int { return f.pageCap }

// Accountant exposes the file's I/O accountant (shared with its indexes).
func (f *File[T]) Accountant() *pager.Accountant { return f.acct }
