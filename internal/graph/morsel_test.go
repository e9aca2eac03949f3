package graph

import (
	"testing"

	"repro/internal/value"
)

func TestNodeMorsels(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		label := "Even"
		if i%2 == 1 {
			label = "Odd"
		}
		g.CreateNode([]string{label}, map[string]value.Value{"i": value.NewInt(int64(i))})
	}

	morsels := Morsels(g.Nodes(), 4)
	if len(morsels) != 3 {
		t.Fatalf("10 nodes at morsel size 4 should give 3 morsels, got %d", len(morsels))
	}
	sizes := []int{4, 4, 2}
	var prev int64 = -1
	for i, m := range morsels {
		if len(m) != sizes[i] {
			t.Errorf("morsel %d has %d nodes, want %d", i, len(m), sizes[i])
		}
		for _, n := range m {
			if n.ID() <= prev {
				t.Errorf("morsels must preserve identifier order: %d after %d", n.ID(), prev)
			}
			prev = n.ID()
		}
	}

	if got := Morsels(g.NodesByLabel("Odd"), 2); len(got) != 3 || len(got[0]) != 2 || len(got[2]) != 1 {
		t.Errorf("5 :Odd nodes at morsel size 2 should give morsels of 2,2,1, got %d morsels", len(got))
	}
	if got := Morsels(g.NodesByLabel("Missing"), 2); got != nil {
		t.Errorf("an absent label should yield no morsels, got %d", len(got))
	}
	if got := Morsels(g.Nodes(), 0); len(got) != 1 || len(got[0]) != 10 {
		t.Errorf("non-positive size should fall back to DefaultMorselSize (one morsel here)")
	}
}
