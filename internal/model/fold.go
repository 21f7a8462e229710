package model

import "slices"

// Accumulator folds a sequence of summary sets into one, as grouping and
// duplicate elimination do for the members of a group. Its result is
// exactly MergeSets(...MergeSets(MergeSets(first, s1), s2)..., sn) — the
// same objects, reps, element lists and order — but it merges each new
// member into objects it owns instead of re-cloning the accumulated set
// for every member, so a group of n members costs O(n) rep copies, not
// O(n²).
//
// Ownership: the input sets are never mutated. Until the first Add the
// accumulator holds the first set itself (a one-member group returns its
// original set); the first Add delegates to MergeSets, whose result is
// freshly allocated, and from then on the accumulator merges into those
// objects in place. The set returned by Set is therefore only stable
// until the next Add.
//
// Per type:
//   - classifier: a label's element list is extended by appending and
//     sorted and de-duplicated lazily, when the set is read or the list
//     has doubled (unionIDs's result is the sorted distinct union however
//     it is computed);
//   - snippet: a per-object set of the source annotations already held
//     lets a member's snippets be checked and appended without cloning
//     the existing ones;
//   - cluster: still re-runs mergeClusterReps over the owned object, so
//     folding many cluster objects of one instance stays quadratic.
//
// An Accumulator is used by one goroutine.
type Accumulator struct {
	lookup AnnotationLookup
	set    SummarySet
	owned  bool
	folds  []objFold // parallel to set once owned
}

// objFold is the accumulator's per-object bookkeeping.
type objFold struct {
	// snippetSeen holds the RepAnnIDs of an owned snippet object's reps
	// (built on the object's first in-place merge).
	snippetSeen map[int64]struct{}
	// labels follows a classifier object's reps by position.
	labels []labelFold
}

// labelFold tracks one classifier rep's element list: dirty marks a list
// that was appended to and awaits sorting and de-duplication; compacted
// is its length after the last compaction, which bounds the growth of
// duplicates between reads.
type labelFold struct {
	dirty     bool
	compacted int
}

// NewAccumulator starts a fold at first.
func NewAccumulator(first SummarySet, lookup AnnotationLookup) *Accumulator {
	return &Accumulator{lookup: lookup, set: first}
}

// Add merges next into the accumulated set, as MergeSets(acc, next)
// would.
func (a *Accumulator) Add(next SummarySet) {
	if !a.owned {
		a.set = MergeSets(a.set, next, a.lookup)
		a.owned = true
		a.folds = make([]objFold, len(a.set))
		return
	}
	if a.set == nil {
		if next == nil {
			return
		}
		a.set = make(SummarySet, 0, len(next))
	}
	var buf [8]bool
	matched := buf[:0]
	if len(next) <= len(buf) {
		matched = buf[:len(next)]
	} else {
		matched = make([]bool, len(next))
	}
	n := len(a.set)
	for i := 0; i < n; i++ {
		oa := a.set[i]
		partner := -1
		for j, ob := range next {
			if !matched[j] && oa.InstanceID == ob.InstanceID && oa.Type == ob.Type {
				matched[j], partner = true, j
				break
			}
		}
		switch {
		case partner >= 0:
			a.mergeInto(i, next[partner])
		case oa.Reps == nil:
			// MergeSets would clone the object, and Clone turns nil
			// Reps (a cluster merge of two empty objects) into empty.
			oa.Reps = []Rep{}
		}
	}
	for j, ob := range next {
		if !matched[j] {
			a.set = append(a.set, ob.Clone())
			a.folds = append(a.folds, objFold{})
		}
	}
}

// Set returns the accumulated set. Until the next Add the caller may
// read it but must not modify it.
func (a *Accumulator) Set() SummarySet {
	for i := range a.folds {
		a.finishClassifier(i)
	}
	return a.set
}

// mergeInto merges b into the owned object at position i, as
// MergeObjects(a.set[i], b) would.
func (a *Accumulator) mergeInto(i int, b *SummaryObject) {
	o := a.set[i]
	switch o.Type {
	case SummaryClassifier:
		a.foldClassifier(i, b.Reps)
	case SummarySnippet:
		a.foldSnippet(i, b.Reps)
	case SummaryCluster:
		o.Reps = mergeClusterReps(o.Reps, b.Reps, a.lookup)
	default:
		o.Reps = nil
	}
}

// foldClassifier is mergeClassifierReps in place. Each existing label
// takes the elements of b's first rep with that label; b's labels that
// the object did not have are appended in b's order; every rep keeps
// only Label, Count and Elements.
func (a *Accumulator) foldClassifier(i int, b []Rep) {
	o, f := a.set[i], &a.folds[i]
	n := len(o.Reps)
	for len(f.labels) < n {
		f.labels = append(f.labels, labelFold{})
	}
	for k := 0; k < n; k++ {
		r, l := &o.Reps[k], &f.labels[k]
		r.Text, r.RepAnnID = "", 0
		for _, rb := range b {
			if rb.Label == r.Label {
				r.Elements = append(r.Elements, rb.Elements...)
				l.dirty = true
				if len(r.Elements) > 2*l.compacted+64 {
					r.Elements = sortedDistinct(r.Elements)
					l.compacted = len(r.Elements)
				}
				break
			}
		}
		r.Count = len(r.Elements)
	}
	for _, rb := range b {
		if !hasLabel(o.Reps[:n], rb.Label) {
			o.Reps = append(o.Reps, Rep{Label: rb.Label, Count: len(rb.Elements),
				Elements: append([]int64(nil), rb.Elements...)})
		}
	}
}

// finishClassifier sorts and de-duplicates the appended element lists of
// the classifier object at position i.
func (a *Accumulator) finishClassifier(i int) {
	o, f := a.set[i], &a.folds[i]
	for k := range f.labels {
		if l := &f.labels[k]; l.dirty {
			r := &o.Reps[k]
			r.Elements = sortedDistinct(r.Elements)
			r.Count = len(r.Elements)
			l.dirty, l.compacted = false, len(r.Elements)
		}
	}
}

// foldSnippet is mergeSnippetReps in place: b's snippets are appended
// unless their source annotation is already held. Only the reps held
// before this merge are checked, so duplicates inside b (and RepAnnID 0)
// are kept, as in the pure merge. The appended reps' element lists are
// copied into one shared backing array (each capped at its length).
func (a *Accumulator) foldSnippet(i int, b []Rep) {
	o, f := a.set[i], &a.folds[i]
	if f.snippetSeen == nil {
		f.snippetSeen = make(map[int64]struct{}, len(o.Reps)+len(b))
		for _, r := range o.Reps {
			f.snippetSeen[r.RepAnnID] = struct{}{}
		}
	}
	n, total := len(o.Reps), 0
	for _, r := range b {
		if _, dup := f.snippetSeen[r.RepAnnID]; r.RepAnnID != 0 && dup {
			continue
		}
		o.Reps = append(o.Reps, r)
		total += len(r.Elements)
	}
	elems := make([]int64, 0, total)
	for k := n; k < len(o.Reps); k++ {
		r := &o.Reps[k]
		f.snippetSeen[r.RepAnnID] = struct{}{}
		if len(r.Elements) == 0 {
			r.Elements = nil // as CloneRep leaves it
			continue
		}
		start := len(elems)
		elems = append(elems, r.Elements...)
		r.Elements = elems[start:len(elems):len(elems)]
	}
}

func hasLabel(reps []Rep, label string) bool {
	for _, r := range reps {
		if r.Label == label {
			return true
		}
	}
	return false
}

// sortedDistinct sorts ids in place and drops duplicates.
func sortedDistinct(ids []int64) []int64 {
	if !strictlyAscending(ids) {
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	return ids
}
