package harness

import "testing"

// TestRegistryLookup pins what nora's run and list rely on: IDs are unique,
// Lookup finds each entry and rejects an unknown ID, and every entry names
// its paper part and the models of both variants.
func TestRegistryLookup(t *testing.T) {
	seen := map[string]bool{}
	for _, en := range Registry() {
		if seen[en.ID] {
			t.Fatalf("duplicate ID %s", en.ID)
		}
		seen[en.ID] = true
		if en.Figure == "" || len(en.Full) == 0 || len(en.Quick) == 0 || en.run == nil {
			t.Fatalf("%s: incomplete entry %+v", en.ID, en)
		}
		got, err := Lookup(en.ID)
		if err != nil || got.ID != en.ID {
			t.Fatalf("Lookup(%s) = %v, %v", en.ID, got.ID, err)
		}
	}
	if _, err := Lookup("E18"); err == nil {
		t.Fatal("Lookup accepted E18, whose study is folded into E25")
	}
}
