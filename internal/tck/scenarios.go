package tck

import "math"

// BuiltinScenarios is a conformance suite over the core language, organised
// roughly like the openCypher TCK feature areas: match, optional match,
// where, with, return, unwind, union, aggregation, expressions, and updates.
func BuiltinScenarios() []Scenario {
	movies := []string{
		`CREATE (keanu:Person {name: 'Keanu', born: 1964}),
		        (carrie:Person {name: 'Carrie', born: 1967}),
		        (laurence:Person {name: 'Laurence', born: 1961}),
		        (matrix:Movie {title: 'The Matrix', released: 1999}),
		        (speed:Movie {title: 'Speed', released: 1994}),
		        (keanu)-[:ACTED_IN {role: 'Neo'}]->(matrix),
		        (carrie)-[:ACTED_IN {role: 'Trinity'}]->(matrix),
		        (laurence)-[:ACTED_IN {role: 'Morpheus'}]->(matrix),
		        (keanu)-[:ACTED_IN {role: 'Jack'}]->(speed)`,
	}
	return []Scenario{
		// --- MATCH ---
		{
			Name:    "match all nodes of a label",
			Setup:   movies,
			Query:   "MATCH (m:Movie) RETURN m.title AS title",
			Columns: []string{"title"},
			Rows:    [][]any{{"The Matrix"}, {"Speed"}},
		},
		{
			Name:    "match with inline properties",
			Setup:   movies,
			Query:   "MATCH (p:Person {name: 'Keanu'})-[:ACTED_IN]->(m) RETURN m.title AS title",
			Columns: []string{"title"},
			Rows:    [][]any{{"The Matrix"}, {"Speed"}},
		},
		{
			Name:    "match relationship properties and direction",
			Setup:   movies,
			Query:   "MATCH (p)-[r:ACTED_IN {role: 'Trinity'}]->(m:Movie) RETURN p.name AS name, m.title AS title",
			Columns: []string{"name", "title"},
			Rows:    [][]any{{"Carrie", "The Matrix"}},
		},
		{
			Name:    "match incoming direction",
			Setup:   movies,
			Query:   "MATCH (m:Movie {title: 'Speed'})<-[:ACTED_IN]-(p) RETURN p.name AS name",
			Columns: []string{"name"},
			Rows:    [][]any{{"Keanu"}},
		},
		{
			Name:    "match undirected counts both orientations",
			Setup:   []string{"CREATE (:A {name: 'a'})-[:R]->(:B {name: 'b'})"},
			Query:   "MATCH (x)--(y) RETURN count(*) AS c",
			Columns: []string{"c"},
			Rows:    [][]any{{2}},
		},
		{
			Name:    "co-actor pattern (two relationships sharing a node)",
			Setup:   movies,
			Query:   "MATCH (a:Person)-[:ACTED_IN]->(:Movie {title: 'The Matrix'})<-[:ACTED_IN]-(b:Person) WHERE a.name < b.name RETURN a.name AS a, b.name AS b",
			Columns: []string{"a", "b"},
			Rows:    [][]any{{"Carrie", "Keanu"}, {"Carrie", "Laurence"}, {"Keanu", "Laurence"}},
		},
		{
			Name:    "variable length path",
			Setup:   []string{"CREATE (:Stop {name: 'a'})-[:NEXT]->(:Stop {name: 'b'})-[:NEXT]->(:Stop {name: 'c'})-[:NEXT]->(:Stop {name: 'd'})"},
			Query:   "MATCH (a:Stop {name: 'a'})-[:NEXT*2..3]->(x) RETURN x.name AS name",
			Columns: []string{"name"},
			Rows:    [][]any{{"c"}, {"d"}},
		},
		{
			Name:    "named path length",
			Setup:   []string{"CREATE (:Stop {name: 'a'})-[:NEXT]->(:Stop {name: 'b'})-[:NEXT]->(:Stop {name: 'c'})"},
			Query:   "MATCH p = (:Stop {name: 'a'})-[:NEXT*]->(:Stop {name: 'c'}) RETURN length(p) AS len",
			Columns: []string{"len"},
			Rows:    [][]any{{2}},
		},

		// --- OPTIONAL MATCH ---
		{
			Name:    "optional match binds null when there is no match",
			Setup:   movies,
			Query:   "MATCH (p:Person) OPTIONAL MATCH (p)-[:DIRECTED]->(m) RETURN p.name AS name, m AS movie",
			Columns: []string{"name", "movie"},
			Rows:    [][]any{{"Keanu", nil}, {"Carrie", nil}, {"Laurence", nil}},
		},
		{
			Name:    "optional match keeps matching rows",
			Setup:   movies,
			Query:   "MATCH (m:Movie) OPTIONAL MATCH (m)<-[:ACTED_IN {role: 'Neo'}]-(p) RETURN m.title AS title, p.name AS actor",
			Columns: []string{"title", "actor"},
			Rows:    [][]any{{"The Matrix", "Keanu"}, {"Speed", nil}},
		},

		// --- WHERE ---
		{
			Name:    "where with comparison and boolean connectives",
			Setup:   movies,
			Query:   "MATCH (p:Person) WHERE p.born > 1960 AND p.born < 1965 RETURN p.name AS name",
			Columns: []string{"name"},
			Rows:    [][]any{{"Keanu"}, {"Laurence"}},
		},
		{
			Name:    "where with string predicates",
			Setup:   movies,
			Query:   "MATCH (p:Person) WHERE p.name STARTS WITH 'K' OR p.name CONTAINS 'au' RETURN p.name AS name",
			Columns: []string{"name"},
			Rows:    [][]any{{"Keanu"}, {"Laurence"}},
		},
		{
			Name:    "where null comparisons exclude rows",
			Setup:   movies,
			Query:   "MATCH (p:Person) WHERE p.missing = 1 RETURN p.name AS name",
			Columns: []string{"name"},
			Rows:    [][]any{},
		},
		{
			Name:    "where IN list",
			Setup:   movies,
			Query:   "MATCH (p:Person) WHERE p.name IN ['Keanu', 'Carrie'] RETURN count(*) AS c",
			Columns: []string{"c"},
			Rows:    [][]any{{2}},
		},
		{
			Name:    "where pattern predicate",
			Setup:   movies,
			Query:   "MATCH (p:Person) WHERE (p)-[:ACTED_IN]->(:Movie {title: 'Speed'}) RETURN p.name AS name",
			Columns: []string{"name"},
			Rows:    [][]any{{"Keanu"}},
		},

		// --- WITH / aggregation ---
		{
			Name:    "with aggregation and filtering on the aggregate",
			Setup:   movies,
			Query:   "MATCH (p:Person)-[:ACTED_IN]->(m:Movie) WITH p, count(m) AS movies WHERE movies > 1 RETURN p.name AS name, movies",
			Columns: []string{"name", "movies"},
			Rows:    [][]any{{"Keanu", 2}},
		},
		{
			Name:    "collect and size",
			Setup:   movies,
			Query:   "MATCH (p:Person)-[:ACTED_IN]->(m:Movie {title: 'The Matrix'}) RETURN size(collect(p.name)) AS castSize",
			Columns: []string{"castSize"},
			Rows:    [][]any{{3}},
		},
		{
			Name:    "min max avg sum",
			Setup:   movies,
			Query:   "MATCH (p:Person) RETURN min(p.born) AS lo, max(p.born) AS hi, sum(p.born) AS total, avg(p.born) AS mean",
			Columns: []string{"lo", "hi", "total", "mean"},
			Rows:    [][]any{{1961, 1967, 5892, 1964.0}},
		},
		{
			Name:    "count distinct",
			Setup:   movies,
			Query:   "MATCH (p:Person)-[:ACTED_IN]->(m:Movie) RETURN count(DISTINCT p) AS actors, count(*) AS credits",
			Columns: []string{"actors", "credits"},
			Rows:    [][]any{{3, 4}},
		},

		// --- RETURN modifiers ---
		{
			Name:    "order by skip limit",
			Setup:   movies,
			Query:   "MATCH (p:Person) RETURN p.name AS name ORDER BY name SKIP 1 LIMIT 1",
			Columns: []string{"name"},
			Rows:    [][]any{{"Keanu"}},
			Ordered: true,
		},
		{
			Name:    "order by descending",
			Setup:   movies,
			Query:   "MATCH (p:Person) RETURN p.name AS name ORDER BY p.born DESC",
			Columns: []string{"name"},
			Rows:    [][]any{{"Carrie"}, {"Keanu"}, {"Laurence"}},
			Ordered: true,
		},
		{
			Name:    "return distinct",
			Setup:   movies,
			Query:   "MATCH (p:Person)-[:ACTED_IN]->(:Movie) RETURN DISTINCT p.name AS name",
			Columns: []string{"name"},
			Rows:    [][]any{{"Keanu"}, {"Carrie"}, {"Laurence"}},
		},

		// --- UNWIND / UNION ---
		{
			Name:    "unwind a literal list",
			Query:   "UNWIND [1, 2, 3] AS x RETURN x * x AS sq",
			Columns: []string{"sq"},
			Rows:    [][]any{{1}, {4}, {9}},
		},
		{
			Name:    "unwind a parameter",
			Query:   "UNWIND $xs AS x RETURN x AS v",
			Params:  map[string]any{"xs": []any{"a", "b"}},
			Columns: []string{"v"},
			Rows:    [][]any{{"a"}, {"b"}},
		},
		{
			Name:    "union removes duplicates, union all keeps them",
			Setup:   movies,
			Query:   "MATCH (p:Person {name: 'Keanu'}) RETURN p.born AS y UNION ALL MATCH (p:Person {name: 'Keanu'}) RETURN p.born AS y",
			Columns: []string{"y"},
			Rows:    [][]any{{1964}, {1964}},
		},
		{
			Name:    "union distinct",
			Setup:   movies,
			Query:   "MATCH (p:Person {name: 'Keanu'}) RETURN p.born AS y UNION MATCH (p:Person {name: 'Keanu'}) RETURN p.born AS y",
			Columns: []string{"y"},
			Rows:    [][]any{{1964}},
		},

		// --- expressions ---
		{
			Name:    "case expression",
			Setup:   movies,
			Query:   "MATCH (p:Person) RETURN p.name AS name, CASE WHEN p.born < 1964 THEN 'older' ELSE 'younger' END AS bucket",
			Columns: []string{"name", "bucket"},
			Rows:    [][]any{{"Keanu", "younger"}, {"Carrie", "younger"}, {"Laurence", "older"}},
		},
		{
			Name:    "list comprehension and slicing",
			Query:   "RETURN [x IN range(0, 10) WHERE x % 3 = 0 | x][1..3] AS xs",
			Columns: []string{"xs"},
			Rows:    [][]any{{[]any{3, 6}}},
		},
		{
			Name:    "three valued logic",
			Query:   "RETURN (null OR true) AS a, (null AND false) AS b, (null AND true) AS c, NOT null AS d",
			Columns: []string{"a", "b", "c", "d"},
			Rows:    [][]any{{true, false, nil, nil}},
		},
		{
			Name:    "temporal functions",
			Query:   "RETURN year(date('2018-06-10')) AS y, month(date('2018-06-10')) AS m, day(dateAdd(date('2018-06-10'), duration({days: 5}))) AS d",
			Columns: []string{"y", "m", "d"},
			Rows:    [][]any{{2018, 6, 15}},
		},

		{
			Name:    "reduce folds a list",
			Query:   "RETURN reduce(acc = 0, x IN [1, 2, 3, 4] | acc + x) AS sum, reduce(s = 'seed', w IN [] | s + w) AS seed",
			Columns: []string{"sum", "seed"},
			Rows:    [][]any{{10, "seed"}},
		},
		{
			Name:    "reduce over collected node values",
			Setup:   []string{"CREATE (:N {v: 1}), (:N {v: 2}), (:N {v: 3})"},
			Query:   "MATCH (n:N) WITH collect(n.v) AS vs RETURN reduce(acc = 1, v IN vs | acc * v) AS product",
			Columns: []string{"product"},
			Rows:    [][]any{{6}},
		},
		{
			Name:    "reduce of a null list is null",
			Query:   "RETURN reduce(acc = 0, x IN null | acc + x) AS r",
			Columns: []string{"r"},
			Rows:    [][]any{{nil}},
		},
		{
			Name:    "string concatenation coerces numbers",
			Query:   "RETURN 'a' + 1 AS a, 1 + 'a' AS b, 'x' + 1.5 AS c, 'n' + 1 + 2 AS d",
			Columns: []string{"a", "b", "c", "d"},
			Rows:    [][]any{{"a1", "1a", "x1.5", "n12"}},
		},
		{
			Name:        "boolean + string stays a type error",
			Query:       "RETURN true + 'a'",
			ExpectError: true,
		},
		{
			Name:    "datetime accepts UTC and numeric offsets",
			Query:   "RETURN year(datetime('2020-01-01T00:00:00Z')) AS y, datetime('2020-01-01T05:30:00+05:30') = datetime('2020-01-01T00:00:00Z') AS same, day(datetime('2019-12-31T19:00:00-05:00')) AS d",
			Columns: []string{"y", "same", "d"},
			Rows:    [][]any{{2020, true, 1}},
		},
		{
			Name: "string functions count code points",
			Query: "WITH 'héllo wörld' AS s RETURN size(s) AS size, length(s) AS len, substring(s, 1, 4) AS sub, " +
				"left(s, 2) AS l, right(s, 3) AS r, reverse('añb') AS rev, split(s, 'ö') AS parts",
			Columns: []string{"size", "len", "sub", "l", "r", "rev", "parts"},
			Rows:    [][]any{{11, 11, "éllo", "hé", "rld", "bña", []any{"héllo w", "rld"}}},
		},
		{
			Name:        "unknown function is rejected",
			Query:       "UNWIND [] AS x RETURN foo(x)",
			ExpectError: true,
		},
		{
			Name:    "the smallest integer literal",
			Query:   "RETURN -9223372036854775808 AS min, -9223372036854775808 = -9223372036854775807 - 1 AS same",
			Columns: []string{"min", "same"},
			Rows:    [][]any{{math.MinInt64, true}},
		},
		{
			Name:        "an integer literal beyond the largest integer is rejected",
			Query:       "RETURN 9223372036854775808 AS x",
			ExpectError: true,
		},

		// --- updates ---
		{
			Name:    "create then count",
			Query:   "CREATE (:X), (:X), (:X)-[:R]->(:Y) RETURN 1 AS ok",
			Columns: []string{"ok"},
			Rows:    [][]any{{1}},
		},
		{
			Name:    "merge is idempotent",
			Setup:   []string{"MERGE (:Tag {name: 'go'})", "MERGE (:Tag {name: 'go'})"},
			Query:   "MATCH (t:Tag) RETURN count(*) AS c",
			Columns: []string{"c"},
			Rows:    [][]any{{1}},
		},
		{
			Name:    "set and remove",
			Setup:   []string{"CREATE (:Item {name: 'a', price: 10})", "MATCH (i:Item) SET i.price = 12, i:Discounted", "MATCH (i:Item) REMOVE i.name"},
			Query:   "MATCH (i:Discounted) RETURN i.price AS price, i.name AS name",
			Columns: []string{"price", "name"},
			Rows:    [][]any{{12, nil}},
		},
		{
			Name:    "detach delete",
			Setup:   []string{"CREATE (:A)-[:R]->(:B)", "MATCH (a:A) DETACH DELETE a"},
			Query:   "MATCH (n) RETURN count(*) AS c",
			Columns: []string{"c"},
			Rows:    [][]any{{1}},
		},

		// --- negative scenarios ---
		{
			Name:        "undefined variable is rejected",
			Query:       "MATCH (n) RETURN banana",
			ExpectError: true,
		},
		{
			Name:        "aggregation in where is rejected",
			Query:       "MATCH (n) WHERE count(n) > 0 RETURN n",
			ExpectError: true,
		},
		{
			Name:        "query ending in match is rejected",
			Query:       "MATCH (n)",
			ExpectError: true,
		},
	}
}
