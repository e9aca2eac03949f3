package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	cypher "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/refsem"
	"repro/internal/value"
)

// gate runs every query class on a small graph at the run's seed through the
// engine and through the paper's reference semantics and compares the answers
// as bags, or as lists under ORDER BY. The write classes are outside the
// reference's read-only fragment; for them the gate checks that the engine's
// own read sees the write. It returns the classes that disagree.
func gate(seed int64) (map[string]bool, error) {
	store := socialStore(gatePeople, seed)
	g := cypher.Wrap(store, cypher.Options{})
	var seq int64
	k := keys{rng: rand.New(rand.NewSource(seed)), people: gatePeople, seq: &seq}
	bad := map[string]bool{}
	for _, c := range classes {
		for rep := 0; rep < 3; rep++ {
			text, params := c.gen(k)
			ok, err := gateOne(g, store, c, text, params)
			if err != nil {
				return nil, fmt.Errorf("gate %s: %w", c.name, err)
			}
			if !ok {
				bad[c.name] = true
				break
			}
		}
	}
	return bad, nil
}

func gateOne(g *cypher.Graph, store *graph.Graph, c *class, text string, params map[string]any) (bool, error) {
	res, err := g.Run(text, params)
	if err != nil {
		return false, err
	}
	switch c.name {
	case "write-set":
		got, err := g.Run(`MATCH (p:Person {name:$name}) RETURN p.age`, params)
		if err != nil {
			return false, err
		}
		rows := got.Rows()
		return len(rows) == 1 && rows[0][0] == params["age"], nil
	case "write-create":
		got, err := g.Run(`MATCH (a:Person {name:$a})-[r:KNOWS {since:$y}]->(b:Person {name:$b}) RETURN count(r)`, params)
		if err != nil {
			return false, err
		}
		rows := got.Rows()
		return len(rows) == 1 && rows[0][0] == int64(1), nil
	}
	q, err := parser.Parse(text)
	if err != nil {
		return false, err
	}
	vp, err := core.ConvertParams(params)
	if err != nil {
		return false, err
	}
	want, err := refsem.Evaluate(q, store, vp)
	if err != nil {
		return false, err
	}
	if strings.Join(res.Columns(), ",") != strings.Join(want.Columns, ",") {
		return false, nil
	}
	have, ref := rowKeys(res.Values()), rowKeys(want.Rows())
	if !c.ordered {
		sort.Strings(have)
		sort.Strings(ref)
	}
	return strings.Join(have, "\n") == strings.Join(ref, "\n"), nil
}

func rowKeys(rows [][]value.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = value.GroupKeyOf(row...)
	}
	return out
}

// jsonValue mirrors cmd/cypher-serve's rendering of result values, so that an
// in-process answer can be compared with (and encoded like) an HTTP one.
func jsonValue(v any) any {
	switch t := v.(type) {
	case cypher.Node:
		props := map[string]any{}
		for _, k := range t.PropertyKeys() {
			props[k] = jsonValue(value.ToGo(t.Property(k)))
		}
		return map[string]any{"id": t.ID(), "labels": t.Labels(), "properties": props}
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = jsonValue(e)
		}
		return out
	default:
		// The benchmark's classes return scalars and nodes only.
		return v
	}
}

func jsonRows(rows [][]any) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = make([]any, len(row))
		for j, v := range row {
			out[i][j] = jsonValue(v)
		}
	}
	return out
}

// canonRows renders each row as canonical JSON (encoding/json sorts object
// keys) and, for a bag, sorts the rows.
func canonRows(rows [][]any, ordered bool) ([]string, error) {
	out := make([]string, len(rows))
	for i, row := range rows {
		b, err := json.Marshal(row)
		if err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	if !ordered {
		sort.Strings(out)
	}
	return out, nil
}

// maskAges blanks b.age in a seek answer for people a write class may have
// changed since the reference graph was loaded; their names still compare.
func maskAges(rows [][]any) {
	for _, row := range rows {
		if len(row) != 2 {
			continue
		}
		if name, ok := row[0].(string); ok && writable(name) {
			row[1] = nil
		}
	}
}

// checkAnswers compares the held-back HTTP answers with an in-process graph
// opened on the same prepared data and returns a message per wrong answer.
func checkAnswers(ref *cypher.Graph, w *workload, keptAnswers []kept) ([]string, error) {
	var wrong []string
	for _, k := range keptAnswers {
		c := classes[k.req.class]
		if c.write {
			continue // the acked-write check covers what writes leave behind
		}
		var reply struct {
			Columns []string `json:"columns"`
			Rows    [][]any  `json:"rows"`
		}
		if err := json.Unmarshal(k.body, &reply); err != nil {
			return nil, err
		}
		res, err := ref.Run(k.req.text, k.req.params)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", c.name, err)
		}
		wantRows := jsonRows(res.Rows())
		if w.rw {
			maskAges(reply.Rows)
			maskAges(wantRows)
		}
		got, err := canonRows(reply.Rows, c.ordered)
		if err != nil {
			return nil, err
		}
		want, err := canonRows(wantRows, c.ordered)
		if err != nil {
			return nil, err
		}
		if strings.Join(reply.Columns, ",") != strings.Join(res.Columns(), ",") || strings.Join(got, "\n") != strings.Join(want, "\n") {
			wrong = append(wrong, fmt.Sprintf("%s %v: server answered %d rows, reference %d, contents differ", c.name, k.req.params, len(got), len(want)))
		}
	}
	return wrong, nil
}

// asInt reads back a number a write class stored. JSON carries no integer
// type, so a parameter sent as 44 reaches the server, and the store, as 44.0.
func asInt(v any) int64 {
	if f, ok := v.(float64); ok {
		return int64(f)
	}
	n, _ := v.(int64) // anything else compares unequal to every acknowledged value
	return n
}

// lostWrites reopens a killed server's data directory and counts the
// acknowledged writes that cannot be read back. It also returns a digest of
// everything the write classes can touch, for comparing cluster nodes.
//
// SIGKILL leaves the operating system's page cache intact, so this checks
// that acknowledgement follows the journal append, not that the bytes would
// survive a power cut.
func lostWrites(dir string, acks *ackLog) (lost int, digest string, err error) {
	g, err := cypher.Open(dir, cypher.Options{})
	if err != nil {
		return 0, "", fmt.Errorf("reopen %s: %w", dir, err)
	}
	defer g.Close()
	ages, err := g.RunContext(context.Background(), `MATCH (p:Person) RETURN p.name, p.age`, nil)
	if err != nil {
		return 0, "", err
	}
	created, err := g.RunContext(context.Background(),
		`MATCH (a:Person)-[r:KNOWS]->(b:Person) WHERE r.since >= $floor RETURN a.name, b.name, r.since`, map[string]any{"floor": int64(createdSince)})
	if err != nil {
		return 0, "", err
	}
	haveAge := map[string]int64{}
	for _, row := range ages.Rows() {
		haveAge[row[0].(string)] = asInt(row[1])
	}
	haveCreated := map[createKey]bool{}
	for _, row := range created.Rows() {
		haveCreated[createKey{row[0].(string), row[1].(string), asInt(row[2])}] = true
	}
	acks.mu.Lock()
	defer acks.mu.Unlock()
	for name, age := range acks.ages {
		if !acks.unknown[name] && haveAge[name] != age {
			lost++
		}
	}
	for key := range acks.created {
		if !haveCreated[key] {
			lost++
		}
	}
	a, err := canonRows(ages.Rows(), false)
	if err != nil {
		return 0, "", err
	}
	c, err := canonRows(created.Rows(), false)
	if err != nil {
		return 0, "", err
	}
	return lost, strings.Join(a, "\n") + "\n--\n" + strings.Join(c, "\n"), nil
}
