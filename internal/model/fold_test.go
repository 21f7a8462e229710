package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// foldGen draws random summary sets shaped to hit every branch of the
// merge procedures: instances missing on either side, two objects of
// one instance in a set, one name under two types, labels in varying
// order, snippet RepAnnID 0 and duplicate IDs inside one input,
// overlapping cluster groups, nil sets and unsorted or duplicated
// element lists.
type foldGen struct {
	rng  *rand.Rand
	prev []SummarySet
}

func (g *foldGen) ids(universe int) []int64 {
	switch g.rng.Intn(10) {
	case 0:
		return nil
	case 1:
		return []int64{}
	}
	n := g.rng.Intn(6) + 1
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int64(g.rng.Intn(universe)+1))
	}
	if g.rng.Intn(4) != 0 { // mostly sorted distinct, as the engine keeps them
		out = sortedDistinct(out)
	}
	return out
}

func (g *foldGen) classifier(instance string) *SummaryObject {
	o := &SummaryObject{ObjID: g.rng.Int63n(100), InstanceID: instance, TupleOID: g.rng.Int63n(100), Type: SummaryClassifier}
	for _, i := range g.rng.Perm(4)[:g.rng.Intn(5)] {
		r := Rep{Label: "L" + strconv.Itoa(i), Elements: g.ids(80)}
		r.Count = len(r.Elements)
		if g.rng.Intn(8) == 0 { // stale identity fields the merge drops
			r.Count, r.Text, r.RepAnnID = g.rng.Intn(9), "stale", g.rng.Int63n(9)
		}
		o.Reps = append(o.Reps, r)
	}
	if g.rng.Intn(10) == 0 && len(o.Reps) > 0 { // a label repeated in one object
		o.Reps = append(o.Reps, Rep{Label: o.Reps[0].Label, Elements: g.ids(80)})
	}
	return o
}

func (g *foldGen) snippet(instance string) *SummaryObject {
	o := &SummaryObject{ObjID: g.rng.Int63n(100), InstanceID: instance, Type: SummarySnippet}
	for n := g.rng.Intn(5); n > 0; n-- {
		id := int64(g.rng.Intn(12)) // 0 included; small universe, so duplicates
		e := []int64{id}
		switch g.rng.Intn(8) {
		case 0:
			e = nil
		case 1:
			e = []int64{}
		}
		o.Reps = append(o.Reps, Rep{Text: "snip " + strconv.FormatInt(id, 10), RepAnnID: id, Elements: e})
	}
	return o
}

func (g *foldGen) cluster(instance string) *SummaryObject {
	o := &SummaryObject{ObjID: g.rng.Int63n(100), InstanceID: instance, Type: SummaryCluster}
	for n := g.rng.Intn(4); n > 0; n-- {
		e := g.ids(40)
		r := Rep{Elements: e, Count: len(e)}
		if len(e) > 0 && g.rng.Intn(3) != 0 {
			r.RepAnnID = e[g.rng.Intn(len(e))]
			r.Text = "rep " + strconv.FormatInt(r.RepAnnID, 10)
		}
		o.Reps = append(o.Reps, r)
	}
	return o
}

func (g *foldGen) set() SummarySet {
	if len(g.prev) > 0 && g.rng.Intn(8) == 0 { // the same set again, as a join repeats a tuple
		return g.prev[g.rng.Intn(len(g.prev))]
	}
	var s SummarySet
	switch g.rng.Intn(12) {
	case 0:
		s = nil
	case 1:
		s = SummarySet{}
	default:
		for n := g.rng.Intn(5); n > 0; n-- {
			switch g.rng.Intn(7) {
			case 0, 1:
				s = append(s, g.classifier("Class"+strconv.Itoa(g.rng.Intn(2))))
			case 2, 3:
				s = append(s, g.snippet("Snip"))
			case 4:
				s = append(s, g.cluster("Clust"))
			case 5: // one instance name under another type
				s = append(s, g.snippet("Class0"))
			default:
				s = append(s, &SummaryObject{InstanceID: "Odd", Type: SummaryType(7),
					Reps: []Rep{{Label: "x", Elements: g.ids(10)}}})
			}
		}
	}
	g.prev = append(g.prev, s)
	return s
}

// deepCopySet copies s, keeping nil and empty slices apart so a
// mutation of either kind shows up under reflect.DeepEqual.
func deepCopySet(s SummarySet) SummarySet {
	if s == nil {
		return nil
	}
	out := make(SummarySet, len(s))
	for i, o := range s {
		c := *o
		if o.Reps != nil {
			c.Reps = make([]Rep, len(o.Reps))
			for k, r := range o.Reps {
				if r.Elements != nil {
					r.Elements = append(make([]int64, 0, len(r.Elements)), r.Elements...)
				}
				c.Reps[k] = r
			}
		}
		out[i] = &c
	}
	return out
}

// TestAccumulatorMatchesRepeatedMergeSets folds random sequences with
// the Accumulator and with repeated MergeSets; the results must be
// identical value for value and in rendering, at the end and wherever
// the fold is read midway, and no input may be modified.
func TestAccumulatorMatchesRepeatedMergeSets(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	lookup := func(id int64) (*Annotation, bool) {
		if id%5 == 0 {
			return nil, false
		}
		return &Annotation{ID: id, Text: "ann " + strconv.FormatInt(id, 10)}, true
	}
	for iter := 0; iter < 5000; iter++ {
		g := &foldGen{rng: rng}
		seq := make([]SummarySet, rng.Intn(60)+1)
		for i := range seq {
			seq[i] = g.set()
		}
		before := make([]SummarySet, len(seq))
		for i, s := range seq {
			before[i] = deepCopySet(s)
		}

		acc := NewAccumulator(seq[0], lookup)
		want := seq[0]
		for i, s := range seq[1:] {
			acc.Add(s)
			want = MergeSets(want, s, lookup)
			if rng.Intn(10) == 0 || i == len(seq)-2 {
				got := acc.Set()
				if !reflect.DeepEqual(got, want) || got.String() != want.String() {
					t.Fatalf("iter %d after %d members: fold differs\n got %s\nwant %s", iter, i+2, dumpSet(got), dumpSet(want))
				}
			}
		}
		if len(seq) == 1 {
			if got := acc.Set(); reflect.ValueOf(got).Pointer() != reflect.ValueOf(seq[0]).Pointer() {
				t.Fatalf("iter %d: one-member fold must return its original set", iter)
			}
		}
		for i := range seq {
			if !reflect.DeepEqual(seq[i], before[i]) {
				t.Fatalf("iter %d: input %d modified:\n got %s\nwant %s", iter, i, dumpSet(seq[i]), dumpSet(before[i]))
			}
		}
	}
}

func dumpSet(s SummarySet) string {
	if s == nil {
		return "nil"
	}
	out := ""
	for _, o := range s {
		out += fmt.Sprintf("\n  %+v", *o)
	}
	return out
}
