package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/value"
)

// checkEntity asserts that an entity's properties, seen through every
// accessor, equal the model map, and that PropertyKeys is sorted.
func checkEntity(t *testing.T, what string, step int, keys []string, get func(string) value.Value, all map[string]value.Value, model map[string]value.Value) {
	t.Helper()
	if !slices.IsSorted(keys) || len(keys) != len(model) {
		t.Fatalf("step %d: %s keys %v, model has %d", step, what, keys, len(model))
	}
	if len(all) != len(model) {
		t.Fatalf("step %d: %s Properties() has %d entries, model %d", step, what, len(all), len(model))
	}
	for _, k := range keys {
		want, ok := model[k]
		if !ok || value.Equals(get(k), want) != value.TrueT || value.Equals(all[k], want) != value.TrueT {
			t.Fatalf("step %d: %s[%q] = %v, model %v (present %v)", step, what, k, get(k), want, ok)
		}
	}
}

// TestPropertyListsMatchMapModel drives a node and a relationship through a
// random sequence of SET, REMOVE, SET to null and replace operations and
// checks them against a map after every step, for key pools of 0, 1, 3 and
// 64 keys. The same mutation stream is replayed onto two followers: one
// adopts the emitted lists (the MVCC replica's path) and one rebuilds them
// from the journal fields (the WAL and replication path); both must end
// identical to the source. An index on the node's first key must answer
// like a scan.
func TestPropertyListsMatchMapModel(t *testing.T) {
	for _, nkeys := range []int{0, 1, 3, 64} {
		t.Run(fmt.Sprintf("keys=%d", nkeys), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(nkeys) + 7))
			pool := []string{"k"}
			if nkeys > 0 {
				pool = make([]string, nkeys)
				for i := range pool {
					pool[i] = fmt.Sprintf("key%d", i)
				}
			}
			key := func() string { return pool[rng.Intn(len(pool))] }
			val := func() value.Value {
				if rng.Intn(5) == 0 {
					return value.Null()
				}
				return value.NewInt(int64(rng.Intn(4)))
			}

			g := New()
			shared, rebuilt := New(), New()
			g.SetMutationHook(func(m Mutation) {
				if err := shared.Apply(m.copyForReplay()); err != nil {
					t.Fatalf("shared replay: %v", err)
				}
				m.list, m.listSet = value.Props{}, false
				if err := rebuilt.Apply(m.copyForReplay()); err != nil {
					t.Fatalf("rebuilt replay: %v", err)
				}
			})
			g.CreateIndex("L", pool[0])
			n := g.CreateNode([]string{"L"}, nil)
			r, err := g.CreateRelationship(n, n, "T", nil)
			if err != nil {
				t.Fatal(err)
			}
			nodeModel, relModel := map[string]value.Value{}, map[string]value.Value{}
			set := func(model map[string]value.Value, k string, v value.Value) {
				if value.IsNull(v) {
					delete(model, k)
				} else {
					model[k] = v
				}
			}
			for step := 0; step < 1000; step++ {
				k, v := key(), val()
				switch rng.Intn(8) {
				case 0, 1, 2:
					must(t, g.SetNodeProperty(n, k, v))
					set(nodeModel, k, v)
				case 3:
					must(t, g.SetNodeProperty(n, k, value.Null()))
					delete(nodeModel, k)
				case 4, 5:
					must(t, g.SetRelationshipProperty(r, k, v))
					set(relModel, k, v)
				default:
					in := map[string]value.Value{}
					for i := rng.Intn(len(pool) + 1); i > 0; i-- {
						in[key()] = val()
					}
					model := map[string]value.Value{}
					for k, v := range in {
						set(model, k, v)
					}
					if rng.Intn(2) == 0 {
						must(t, g.ReplaceNodeProperties(n, in))
						nodeModel = model
					} else {
						must(t, g.ReplaceRelationshipProperties(r, in))
						relModel = model
					}
				}
				checkEntity(t, "node", step, n.PropertyKeys(), n.Property, n.Properties(), nodeModel)
				checkEntity(t, "rel", step, r.PropertyKeys(), r.Property, r.Properties(), relModel)
				for i := int64(0); i < 4; i++ {
					seek := value.NewInt(i)
					hits := g.NodesByLabelProperty("L", pool[0], seek)
					has := value.Equals(nodeModel[pool[0]], seek) == value.TrueT
					if has != (len(hits) == 1) {
						t.Fatalf("step %d: index seek on %v found %d nodes, model holds it: %v", step, seek, len(hits), has)
					}
				}
			}
			dump := g.DebugDump()
			if got := shared.DebugDump(); got != dump {
				t.Fatalf("replay adopting lists diverged:\n%s\nwant\n%s", got, dump)
			}
			if got := rebuilt.DebugDump(); got != dump {
				t.Fatalf("replay rebuilding lists diverged:\n%s\nwant\n%s", got, dump)
			}
		})
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestInternedNamesAreShared checks that keys, labels and types written
// through different strings end up as one copy per graph, and that the
// clone keeps using the same copies.
func TestInternedNamesAreShared(t *testing.T) {
	g := New()
	// string([]byte(...)) makes a distinct copy of the bytes each time.
	fresh := func(s string) string { return string([]byte(s)) }
	a := g.CreateNode([]string{fresh("Person")}, map[string]value.Value{fresh("name"): value.NewString("a")})
	b := g.CreateNode([]string{fresh("Person")}, map[string]value.Value{fresh("name"): value.NewString("b")})
	r1, _ := g.CreateRelationship(a, b, fresh("KNOWS"), nil)
	r2, _ := g.CreateRelationship(b, a, fresh("KNOWS"), nil)
	must(t, g.SetNodeProperty(b, fresh("age"), value.NewInt(3)))
	must(t, g.AddNodeLabel(a, fresh("Admin")))
	same := func(x, y string) bool { return unsafe.StringData(x) == unsafe.StringData(y) }
	if !same(a.props.Keys()[0], b.props.Keys()[1]) { // b: age, name
		t.Error("property key not interned")
	}
	if !same(a.labels[1], b.labels[0]) {
		t.Error("label not interned")
	}
	if !same(r1.typ, r2.typ) {
		t.Error("relationship type not interned")
	}
	c := g.Clone()
	cb, _ := c.NodeByID(b.ID())
	if !same(cb.labels[0], b.labels[0]) || !cb.props.Shares(b.props) {
		t.Error("clone copied a label or property list instead of sharing it")
	}
	cr, _ := c.RelationshipByID(r1.ID())
	if !same(cr.typ, r1.typ) {
		t.Error("clone did not keep the interned type")
	}
}

// TestCloneDropsUnusedNames checks that the name table keeps a key after its
// last use is gone (the table does not shrink), and that Clone starts the
// copy over from the names its entities still use.
func TestCloneDropsUnusedNames(t *testing.T) {
	g := New()
	n := g.CreateNode([]string{"Person"}, props("name", "a"))
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("user%d", i)
		must(t, g.SetNodeProperty(n, k, value.NewInt(int64(i))))
		must(t, g.SetNodeProperty(n, k, value.Null()))
	}
	gone := g.CreateNode([]string{"Gone"}, props("tmp", 1))
	r, err := g.CreateRelationship(n, gone, "LINK", nil)
	must(t, err)
	must(t, g.DeleteRelationship(r))
	must(t, g.DeleteNode(gone))
	if _, ok := g.names["user7"]; !ok {
		t.Fatal("the source dropped a name; the table is meant to keep it")
	}

	c := g.Clone()
	want := []string{"Person", "name"}
	var got []string
	for k := range c.names {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("clone names = %v, want %v", got, want)
	}
	// The clone interns later writes against its own table.
	cn, _ := c.NodeByID(n.ID())
	must(t, c.SetNodeProperty(cn, "user7", value.NewInt(1)))
	if _, ok := c.names["user7"]; !ok {
		t.Fatal("clone did not intern a new key")
	}
}

// TestSharedListsNeverChange checks that a property list or label slice
// held by a clone or a detached entity never changes when the source entity
// is written afterwards. Readers of the clone and the detached copies run
// concurrently with the writer, so under -race any write into shared memory
// is reported even when the values happen to match.
func TestSharedListsNeverChange(t *testing.T) {
	g := New()
	n := g.CreateNode([]string{"B", "D"}, props("a", 1, "b", "x", "c", 2.5))
	r, err := g.CreateRelationship(n, n, "T", props("w", 7, "z", "q"))
	must(t, err)
	c := g.Clone()
	cn, _ := c.NodeByID(n.ID())
	cr, _ := c.RelationshipByID(r.ID())
	if !cn.props.Shares(n.props) || !cr.props.Shares(r.props) {
		t.Fatal("clone does not share the source's lists")
	}
	dn := value.DetachNode(n)
	dr := value.DetachRelationship(r)
	if !dn.(value.PropLister).PropList().Shares(n.props) {
		t.Fatal("detached node does not share the source's list")
	}
	wantNode, wantRel := value.NewNode(cn).String(), value.NewRelationship(cr).String()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, view := range []struct {
		name string
		str  func() string
		want string
	}{
		{"clone node", func() string { return value.NewNode(cn).String() }, wantNode},
		{"detached node", func() string { return value.NewNode(dn).String() }, wantNode},
		{"clone rel", func() string { return value.NewRelationship(cr).String() }, wantRel},
		{"detached rel", func() string { return value.NewRelationship(dr).String() }, wantRel},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := view.str(); got != view.want {
					t.Errorf("%s changed: %s, want %s", view.name, got, view.want)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		must(t, g.SetNodeProperty(n, "a", value.NewInt(int64(i))))
		must(t, g.SetNodeProperty(n, "b", value.Null()))
		must(t, g.SetNodeProperty(n, "aa", value.NewInt(int64(i))))
		must(t, g.ReplaceNodeProperties(n, props("a", 1, "b", "x", "c", 2.5)))
		must(t, g.AddNodeLabel(n, "C"))
		must(t, g.AddNodeLabel(n, "A"))
		must(t, g.RemoveNodeLabel(n, "B"))
		must(t, g.RemoveNodeLabel(n, "A"))
		must(t, g.RemoveNodeLabel(n, "C"))
		must(t, g.AddNodeLabel(n, "B"))
		must(t, g.SetRelationshipProperty(r, "w", value.NewInt(int64(i))))
		must(t, g.SetRelationshipProperty(r, "a", value.NewInt(int64(i))))
		must(t, g.ReplaceRelationshipProperties(r, props("w", 7, "z", "q")))
	}
	close(stop)
	wg.Wait()
}
