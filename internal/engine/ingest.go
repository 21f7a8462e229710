package engine

// Batched net-delta summary maintenance (Config.IngestFlushOps > 0).
//
// Summary objects are incrementally maintained aggregates over
// annotation streams (Section 4.1.2), but the eager path pays the full
// maintenance cost — classify, re-key both index schemes, re-elect
// snippets, fully re-cluster — on every single AddAnnotation, inside
// the exclusive writer lock. In batched mode the hot path only logs the
// operation (WAL durability is unchanged: one op record plus one commit
// record per annotation, exactly the eager stream) and stores the raw
// annotation; the summary maintenance is deferred into a per-tuple
// delta and applied as a NET effect at flush time:
//
//   - one classifier re-key per touched label instead of one per
//     annotation (an index UpdateLabel collapses a count span old..new
//     into a single delete+insert),
//   - one cluster rebuild per touched tuple instead of one per
//     annotation,
//   - one snippet election batch per tuple, in arrival order,
//   - one statistics Forget/Observe bracket per object instead of N,
//   - one MVCC epoch publication per flush instead of one per op.
//
// Flush triggers: the IngestFlushOps threshold, the IngestFlushInterval
// timer, DB.FlushIngest, transaction commit, checkpoint, and — because
// pinned epochs cannot see unpublished state — every read path checks
// the lock-free ingestDirty flag and flushes on demand before pinning.
// Mutations that read or rewrite summaries (annotation/tuple deletes,
// instance link/unlink, index builds) flush first inside their apply
// functions, which covers the live path, Txn commit apply, and WAL
// replay uniformly.
//
// One maintenance path: with IngestFlushOps == 0 (the default) no
// buffer exists, and each annotation is applied at once through the
// same absorbBatch, as a batch of one. In batched mode the flushed
// state equals that eager state for the same operation sequence
// because every per-type maintenance step telescopes:
//
//   - classifier element sets are sorted ID sets, so inserting a batch
//     one-by-one or at once yields the same set, and the index key for
//     a label depends only on its final count;
//   - snippet reps append in per-tuple arrival order, which the buffer
//     preserves;
//   - cluster objects are rebuilt from the full stored annotation set,
//     which only depends on the final store contents;
//   - instance statistics brackets are exact inverses, so
//     Forget(initial)+Observe(final) equals the eager per-op chain.
//
// The differential tests in ingest_test.go verify this identity over a
// mixed workload, including through WAL crash recovery.

import (
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/wal"
)

// tupleDelta is the pending net delta for one tuple: the annotations
// added or attached to it since the last flush, in arrival order.
type tupleDelta struct {
	table string
	oid   int64
	anns  []*model.Annotation
}

// ingestBuffer holds the deferred maintenance work. Guarded by db.mu's
// exclusive lock; the deltas map is keyed by tuple OID alone because
// OIDs are allocated from a catalog-wide counter and never collide
// across tables.
type ingestBuffer struct {
	deltas map[int64]*tupleDelta
	order  []*tupleDelta // first-touch order, for a deterministic flush
	ops    int
}

func newIngestBuffer() *ingestBuffer {
	return &ingestBuffer{deltas: make(map[int64]*tupleDelta)}
}

// bufferIngest defers one annotation's summary maintenance into the
// net-delta buffer, returning false in eager mode (the caller then
// absorbs it at once as a batch of one). The caller holds the exclusive
// lock and has already stored the raw annotation and logged its record.
func (db *DB) bufferIngest(t *catalog.Table, oid int64, ann *model.Annotation) bool {
	b := db.ingest
	if b == nil {
		return false
	}
	d := b.deltas[oid]
	if d == nil {
		d = &tupleDelta{table: t.Name, oid: oid}
		b.deltas[oid] = d
		b.order = append(b.order, d)
	}
	d.anns = append(d.anns, ann)
	b.ops++
	db.ingestBuffered.Add(1)
	db.ingestPending.Add(1)
	db.ingestDirty.Store(true)
	return true
}

// flushIngestLocked drains the buffer, applying each touched tuple's
// net maintenance once. The caller holds db.mu exclusively (or owns the
// DB privately, e.g. during recovery replay) and is responsible for
// publishing an epoch afterwards — publishLocked clears the dirty flag
// once the empty buffer's state is visible to readers. Returns whether
// any work was flushed. A no-op in eager mode.
func (db *DB) flushIngestLocked() bool {
	b := db.ingest
	if b == nil || b.ops == 0 {
		return false
	}
	order, ops := b.order, b.ops
	b.deltas = make(map[int64]*tupleDelta)
	b.order = nil
	b.ops = 0
	for _, d := range order {
		t, err := db.cat.Table(d.table)
		if err != nil {
			continue
		}
		rid, ok := t.DiskTupleLoc(d.oid)
		if !ok {
			// The tuple vanished while its delta was pending. Delete paths
			// flush first, so this only occurs under direct catalog
			// surgery; dropping the delta matches what eager maintenance
			// would have left after the same delete.
			continue
		}
		db.absorbBatch(t, d.oid, rid, d.anns)
	}
	db.ingestFlushes.Add(1)
	db.ingestFlushedOps.Add(int64(ops))
	db.ingestFlushedTuples.Add(int64(len(order)))
	db.ingestPending.Store(0)
	return true
}

// FlushIngest forces the buffered net deltas into the summary objects
// and indexes and publishes the resulting epoch. A no-op in eager mode,
// when nothing is buffered, or after Close.
func (db *DB) FlushIngest() {
	if db.ingest == nil || !db.ingestDirty.Load() {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return
	}
	db.flushIngestLocked()
	db.publishLocked()
}

// flushIfDirty is the read-path gate: a lock-free flag check in the
// common case, a full flush+publish only when buffered work would
// otherwise be invisible to the epoch about to be pinned.
func (db *DB) flushIfDirty() {
	if db.ingestDirty.Load() {
		db.FlushIngest()
	}
}

// startIngestFlusher launches the interval flusher goroutine. Called
// once the DB is fully constructed — for Open, only after recovery, so
// the timer can never race the single-owner replay loop.
func (db *DB) startIngestFlusher(interval time.Duration) {
	if db.ingest == nil || interval <= 0 {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	db.ingestStop = stop
	db.ingestDone = done
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// Prefer stop when both are ready: Close joins on done, so a
				// tick racing the stop signal must not start another flush.
				select {
				case <-stop:
					return
				default:
				}
				db.flushIfDirty()
			}
		}
	}()
}

// runAutoIngest is runAuto for the ingest hot path. In eager mode it is
// runAuto. In batched mode the operation still logs its record and the
// per-op commit record under the exclusive hold — the WAL stream is
// identical to eager mode, so crash recovery sees the same committed
// prefix — but epoch publication is skipped unless this op tripped the
// flush threshold: readers pin published epochs, so unpublished raw
// effects stay invisible and no per-op copy-on-write shells are built.
// The commit is still forced durable outside the lock, unchanged.
func (db *DB) runAutoIngest(fn func(txid uint64) (uint64, error)) error {
	if db.ingest == nil {
		return db.runAuto(fn)
	}
	db.mu.Lock()
	db.nextTxID++
	txid := db.nextTxID
	opLSN, err := fn(txid)
	var commitLSN uint64
	var l *wal.Log
	if opLSN != 0 {
		var cerr error
		commitLSN, cerr = db.logAppend(recCommit, txid, nil)
		if err == nil {
			err = cerr
		}
		l = db.wal
	}
	if db.ingest.ops >= db.ingestEvery {
		db.flushIngestLocked()
		db.publishLocked()
	}
	db.mu.Unlock()
	if commitLSN != 0 && l != nil {
		if cerr := l.Commit(commitLSN); cerr != nil && err == nil {
			err = cerr
		}
		db.maybeCheckpoint()
	}
	return err
}

// absorbBatch folds a tuple's annotations into its summary objects as
// one net application. It is the only summary-maintenance path: a
// flush passes each tuple's pending annotations, and eager mode passes
// one annotation as it arrives.
func (db *DB) absorbBatch(t *catalog.Table, oid int64, rid heap.RID, anns []*model.Annotation) {
	set := t.GetSummaries(oid).Clone()
	for _, si := range t.Instances {
		obj := set.Get(si.Name)
		created := false
		if obj == nil {
			obj = db.newEmptyObject(t, si, oid)
			set = append(set, obj)
			created = true
		}
		if !created {
			t.ForgetSummary(obj)
		}
		switch si.Type {
		case model.SummaryClassifier:
			db.absorbBatchIntoClassifier(t, si, obj, anns, rid, created)
		case model.SummarySnippet:
			for _, ann := range anns {
				db.absorbIntoSnippet(si, obj, ann)
			}
		case model.SummaryCluster:
			db.rebuildCluster(si, obj, oid)
		}
		t.ObserveSummary(obj)
	}
	t.PutSummaries(oid, set)
}

// absorbBatchIntoClassifier classifies every pending annotation and
// applies the net count movement per label: each touched label is
// re-keyed in both index schemes exactly once, from its pre-batch count
// to its final count, instead of once per annotation.
func (db *DB) absorbBatchIntoClassifier(t *catalog.Table, si *catalog.SummaryInstance,
	obj *model.SummaryObject, anns []*model.Annotation, rid heap.RID, created bool) {
	clf := db.classifiers[strings.ToLower(si.Name)]
	leaves := si.LeafLabels()
	type span struct{ old, new int }
	spans := make(map[string]*span)
	var touched []string // first-touch order, for deterministic re-keying
	for _, ann := range anns {
		label := leaves[len(leaves)-1] // default to the catch-all leaf
		if clf != nil {
			label = clf.Classify(ann.Text)
		}
		for _, l := range append([]string{label}, si.Ancestors(label)...) {
			li := obj.RepIndexByLabel(l)
			if li < 0 {
				obj.Reps = append(obj.Reps, model.Rep{Label: l})
				li = len(obj.Reps) - 1
			}
			sp := spans[l]
			if sp == nil {
				sp = &span{old: obj.Reps[li].Count}
				spans[l] = sp
				touched = append(touched, l)
			}
			obj.Reps[li].Elements = insertSorted(obj.Reps[li].Elements, ann.ID)
			obj.Reps[li].Count = len(obj.Reps[li].Elements)
			sp.new = obj.Reps[li].Count
		}
	}

	sIdx := db.summaryIndex(t.Name, si.Name)
	bIdx := db.baselineIndex(t.Name, si.Name)
	if created {
		if sIdx != nil {
			sIdx.IndexObject(obj, rid)
		}
		if bIdx != nil {
			bIdx.IndexObject(obj)
		}
		return
	}
	for _, l := range touched {
		sp := spans[l]
		if sp.new == sp.old {
			continue
		}
		if sIdx != nil {
			sIdx.UpdateLabel(l, sp.old, sp.new, rid)
		}
		if bIdx != nil {
			bIdx.UpdateLabel(obj.TupleOID, l, sp.new)
		}
	}
}
