package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/heap"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/sql"
)

// readKind is one statement shape of the served read mix.
type readKind struct {
	name string
	// sql has `?` placeholders. Prepared kinds send it once to
	// /v1/sessions/{id}/prepare and bind parameters per execution;
	// ad-hoc kinds splice the literals in and post the text to /v1/query.
	sql      string
	prepared bool
	// ordered marks a total ORDER BY: answers compare row by row.
	// Otherwise rows compare as a multiset.
	ordered bool
}

// servedKinds is the served mix, in workloads.json's "mix" order.
var servedKinds = []readKind{
	// Figure 10: classifier equality answered by the Summary-BTree, with
	// summaries propagated to the client.
	{name: "fig10_classifier_eq", prepared: true,
		sql: `SELECT id, common_name FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') = ?`},
	// Figure 11: classifier range plus a keyword search over the
	// snippet summaries.
	{name: "fig11_range_keyword", prepared: true,
		sql: `SELECT id, common_name FROM Birds r
		WHERE r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') >= ?
		  AND r.$.getSummaryObject('ClassBird1').getLabelValue('Anatomy') <= ?
		  AND r.$.getSummaryObject('TextSummary1').containsUnion('juvenile')`},
	// Figure 16 Q1, per family: summary top-k with an id tie-breaker so
	// the answer is unique.
	{name: "fig16_family_topk", prepared: true, ordered: true,
		sql: `SELECT id, common_name FROM Birds r WHERE r.family = ?
		ORDER BY r.$.getSummaryObject('ClassBird1').getLabelValue('Disease') DESC, id LIMIT 5`},
	// Ad-hoc text with literals drawn from a domain several times the
	// plan cache's capacity, so most executions miss it.
	{name: "adhoc_literal_query",
		sql: `SELECT id, common_name, wingspan_cm FROM Birds r WHERE r.wingspan_cm = ?
		AND r.$.getSummaryObject('ClassBird1').getLabelValue('Behavior') >= ?`},
}

// readReq is one read of the mix.
type readReq struct {
	kind   int
	params []model.Value
	key    string
}

func newReadReq(kind int, params ...model.Value) readReq {
	lits := make([]string, len(params))
	for i, p := range params {
		lits[i] = p.SQLLiteral()
	}
	return readReq{kind: kind, params: params, key: fmt.Sprintf("%d|%s", kind, strings.Join(lits, ","))}
}

// literalSQL splices the parameters into the statement text.
func (q readReq) literalSQL() string {
	text := servedKinds[q.kind].sql
	for _, p := range q.params {
		text = strings.Replace(text, "?", p.SQLLiteral(), 1)
	}
	return text
}

// readMix draws reads from each kind's parameter domain, weighted by the
// mix shares in workloads.json.
type readMix struct {
	domains [][]readReq // per kind
	weights []int
	total   int
	// family maps bird id to family, for checking top-k answers.
	family map[int64]string
}

// newReadMix derives every kind's parameter domain from the loaded data
// (families and wingspans present in the table) and fixed label counts
// chosen so that each statement returns tens of rows, not hundreds.
func newReadMix(db *engine.DB, shares map[string]int) (*readMix, error) {
	birds, err := db.Table("Birds")
	if err != nil {
		return nil, err
	}
	m := &readMix{domains: make([][]readReq, len(servedKinds)), family: map[int64]string{}}
	familySet := map[string]bool{}
	wingSet := map[int64]bool{}
	birds.Scan(func(_ heap.RID, t *model.Tuple) bool {
		m.family[t.Values[0].Int] = t.Values[4].Text
		familySet[t.Values[4].Text] = true
		wingSet[t.Values[7].Int] = true
		return true
	})
	for _, k := range []int64{4, 5, 6} {
		m.domains[0] = append(m.domains[0], newReadReq(0, model.NewInt(k)))
	}
	for _, lo := range []int64{5, 6, 7} {
		m.domains[1] = append(m.domains[1], newReadReq(1, model.NewInt(lo), model.NewInt(lo+1)))
	}
	for _, f := range sortedKeys(familySet) {
		m.domains[2] = append(m.domains[2], newReadReq(2, model.NewText(f)))
	}
	wings := make([]int64, 0, len(wingSet))
	for w := range wingSet {
		wings = append(wings, w)
	}
	sort.Slice(wings, func(i, j int) bool { return wings[i] < wings[j] })
	for _, w := range wings {
		for _, b := range []int64{3, 4, 5} {
			m.domains[3] = append(m.domains[3], newReadReq(3, model.NewInt(w), model.NewInt(b)))
		}
	}
	for _, k := range servedKinds {
		w, ok := shares[k.name]
		if !ok {
			return nil, fmt.Errorf("workloads.json: no mix share for %s", k.name)
		}
		m.weights = append(m.weights, w)
		m.total += w
	}
	return m, nil
}

func (m *readMix) next(rng *rand.Rand) readReq {
	x := rng.Intn(m.total)
	kind := 0
	for x >= m.weights[kind] {
		x -= m.weights[kind]
		kind++
	}
	d := m.domains[kind]
	return d[rng.Intn(len(d))]
}

// all lists every read of every domain.
func (m *readMix) all() []readReq {
	var out []readReq
	for _, d := range m.domains {
		out = append(out, d...)
	}
	return out
}

// runInProcess executes a read on the engine's classic path, which never
// consults the plan cache.
func runInProcess(ctx context.Context, db *engine.DB, q readReq, opts *optimizer.Options) (*engine.Result, error) {
	stmt, err := sql.Parse(servedKinds[q.kind].sql)
	if err != nil {
		return nil, err
	}
	bound, err := sql.BindSelect(stmt.(*sql.SelectStmt), q.params)
	if err != nil {
		return nil, err
	}
	return db.RunSelectContext(ctx, bound, opts)
}

// jsonValue maps an engine value onto the JSON value the server sends.
func jsonValue(v model.Value) any {
	switch v.Kind {
	case model.KindInt:
		return v.Int
	case model.KindFloat:
		return v.Float
	case model.KindText:
		return v.Text
	case model.KindBool:
		return v.Bool
	default:
		return nil
	}
}

// rowJSON encodes a row's values the way the server does.
func rowJSON(t *model.Tuple) []byte {
	vals := make([]any, len(t.Values))
	for i, v := range t.Values {
		vals[i] = jsonValue(v)
	}
	b, _ := json.Marshal(vals) // ints, floats, strings, bools and nil always encode
	return b
}

// canonical renders an answer as text: one line per row, each the row's
// JSON values and its summary rendering; unordered answers sort lines.
func canonical(rows []string, ordered bool) string {
	if !ordered {
		sort.Strings(rows)
	}
	return strings.Join(rows, "\n")
}

// canonicalResult is canonical for an in-process result.
func canonicalResult(res *engine.Result, ordered bool) string {
	lines := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		sum := ""
		if len(row.Tuple.Summaries) > 0 {
			sum = row.Tuple.Summaries.String()
		}
		lines[i] = string(rowJSON(row.Tuple)) + "\x1f" + sum
	}
	return canonical(lines, ordered)
}

// wireResult is the part of the server's result payload answers are
// checked on.
type wireResult struct {
	Rows      []json.RawMessage `json:"rows"`
	RowCount  int               `json:"row_count"`
	Summaries []string          `json:"summaries"`
}

// canonicalWire is canonical for a served response body.
func canonicalWire(body []byte, ordered bool) (string, *wireResult, error) {
	var w wireResult
	if err := json.Unmarshal(body, &w); err != nil {
		return "", nil, fmt.Errorf("decoding result: %w", err)
	}
	if w.RowCount != len(w.Rows) {
		return "", nil, fmt.Errorf("row_count %d but %d rows", w.RowCount, len(w.Rows))
	}
	lines := make([]string, len(w.Rows))
	for i, raw := range w.Rows {
		sum := ""
		if len(w.Summaries) > 0 {
			sum = w.Summaries[i]
		}
		lines[i] = string(raw) + "\x1f" + sum
	}
	return canonical(lines, ordered), &w, nil
}

// labelCounts parses the classifier object of a summary rendering such
// as "{ClassBird1[(Behavior,3),(Disease,1)]; TextSummary1[...]}".
func labelCounts(summary string) (map[string]int, bool) {
	i := strings.Index(summary, "ClassBird1[")
	if i < 0 {
		return nil, false
	}
	rest := summary[i+len("ClassBird1["):]
	end := strings.IndexByte(rest, ']')
	if end < 0 {
		return nil, false
	}
	out := map[string]int{}
	for _, item := range strings.Split(rest[:end], "),(") {
		item = strings.Trim(item, "()")
		if item == "" {
			continue
		}
		var label string
		var n int
		comma := strings.LastIndexByte(item, ',')
		if comma < 0 {
			return nil, false
		}
		label = item[:comma]
		if _, err := fmt.Sscan(item[comma+1:], &n); err != nil {
			return nil, false
		}
		out[label] = n
	}
	return out, true
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
