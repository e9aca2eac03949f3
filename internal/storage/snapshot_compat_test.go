package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/temporal"
	"repro/internal/value"
)

// goldenSnapshot is a snapshot file written by an earlier build of this
// package from goldenGraph(). Snapshots are the on-disk contract between
// builds: the current code must open that file and must write the same
// graph to the very same bytes, which is what lets either build open the
// other's snapshot.
const goldenSnapshot = "testdata/snapshot-000001.snap"

// goldenGraph builds a small graph through the public mutators, covering
// every persistable value tag, several labels and types, an index, an ID
// gap left by a deleted entity, and properties changed by set, set to null,
// replace and label changes after creation.
func goldenGraph() *graph.Graph {
	g := graph.New()
	g.CreateIndex("Person", "name")
	all := map[string]value.Value{
		"null":   value.Null(),
		"bool":   value.NewBool(true),
		"int":    value.NewInt(-42),
		"float":  value.NewFloat(3.5),
		"string": value.NewString("héllo \x00 world"),
		"list":   value.NewList(value.NewInt(1), value.NewString("x"), value.NewList(value.NewBool(false))),
		"map": value.NewMap(map[string]value.Value{
			"nested": value.NewList(value.NewFloat(1.25)),
			"s":      value.NewString(""),
		}),
		"date": temporal.Date{Year: 2020, Month: time.March, Day: 14},
		"datetime": temporal.DateTime{
			Date: temporal.Date{Year: 1999, Month: time.December, Day: 31},
			Hour: 23, Minute: 59, Second: 58, Nanosecond: 123456789,
		},
		"duration": temporal.Duration{Months: 1, Days: -2, Seconds: 3600, Nanos: 42},
	}
	a := g.CreateNode([]string{"Person", "Admin"}, map[string]value.Value{"name": value.NewString("Ada"), "age": value.NewInt(36)})
	b := g.CreateNode([]string{"Person"}, all)
	gone := g.CreateNode([]string{"Temp"}, nil)
	c := g.CreateNode(nil, map[string]value.Value{"x": value.NewFloat(-0.5)})
	r, _ := g.CreateRelationship(a, b, "KNOWS", map[string]value.Value{"since": value.NewInt(1999), "w": value.Null()})
	g.CreateRelationship(b, a, "KNOWS", nil)
	g.CreateRelationship(c, c, "SELF", map[string]value.Value{"d": temporal.Date{Year: 1, Month: time.January, Day: 1}})
	tmp, _ := g.CreateRelationship(a, gone, "TEMP", nil)
	g.DeleteRelationship(tmp)
	g.DeleteNode(gone)
	g.SetNodeProperty(a, "email", value.NewString("ada@example.org"))
	g.SetNodeProperty(a, "age", value.Null())
	g.SetNodeProperty(b, "int", value.NewInt(7))
	g.ReplaceNodeProperties(c, map[string]value.Value{"y": value.NewBool(false), "z": value.Null()})
	g.SetRelationshipProperty(r, "since", value.NewInt(2001))
	g.AddNodeLabel(c, "Late")
	g.RemoveNodeLabel(a, "Admin")
	return g
}

func TestSnapshotBytesMatchGolden(t *testing.T) {
	want, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	path, err := writeSnapshot(t.TempDir(), buildSnapshotImage(goldenGraph(), 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot of the golden graph is %d bytes and differs from %s (%d bytes)", len(got), goldenSnapshot, len(want))
	}
}

func TestGoldenSnapshotOpens(t *testing.T) {
	dir := t.TempDir()
	golden, err := os.ReadFile(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(goldenSnapshot)), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	st, err := Open(dir, g, Options{SyncMode: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, want := g.DebugDump(), goldenGraph().DebugDump(); got != want {
		t.Fatalf("golden snapshot loaded as\n%s\nwant\n%s", got, want)
	}
}
