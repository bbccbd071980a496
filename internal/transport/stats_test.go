package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// TestStatsTableMatchesSnapshot pins the counter table to the public
// snapshot: the counter constants in stats.go are StatsSnapshot's
// fields, one for one and in order; every field is a uint64 (tripbench
// sums snapshots field by field); a counter bumped on its own moves
// only its own field (and, for an object-drop reason, ObjectsDropped);
// Reset zeroes everything.
func TestStatsTableMatchesSnapshot(t *testing.T) {
	st := reflect.TypeOf(StatsSnapshot{})
	if st.NumField() != int(numCounters) {
		t.Fatalf("StatsSnapshot has %d fields, counter table %d", st.NumField(), numCounters)
	}
	consts := counterConsts(t)
	if len(consts) != int(numCounters) {
		t.Fatalf("stats.go declares %d counters, want %d", len(consts), numCounters)
	}
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Errorf("StatsSnapshot.%s is %s, want uint64", f.Name, f.Type)
		}
		if consts[i] != "c"+f.Name {
			t.Errorf("counter %d is %s, want c%s", i, consts[i], f.Name)
		}
		if counterNames[i] != f.Name {
			t.Errorf("counterNames[%d] = %q, want %q", i, counterNames[i], f.Name)
		}
	}

	for c := counter(0); c < numCounters; c++ {
		if c == cObjectsDropped {
			continue // derived, never bumped
		}
		var s Stats
		s.add(c, 1)
		snap := reflect.ValueOf(s.Snapshot())
		isDrop := c >= cDroppedEmptyBody && c <= cDroppedBindFailed
		for i := 0; i < snap.NumField(); i++ {
			want := uint64(0)
			if counter(i) == c || (isDrop && counter(i) == cObjectsDropped) {
				want = 1
			}
			if got := snap.Field(i).Uint(); got != want {
				t.Errorf("after bumping %s: %s = %d, want %d", counterNames[c], counterNames[i], got, want)
			}
		}
		i := 0
		s.Each(func(name string, v uint64) {
			if name != counterNames[i] || v != snap.Field(i).Uint() {
				t.Errorf("Each #%d = (%s, %d), want (%s, %d)", i, name, v, counterNames[i], snap.Field(i).Uint())
			}
			i++
		})
		s.Reset()
		if got := s.Snapshot(); got != (StatsSnapshot{}) {
			t.Errorf("Reset after bumping %s left %+v", counterNames[c], got)
		}
	}
}

// counterConsts returns the names of the counter constants declared in
// stats.go, in declaration order, without numCounters.
func counterConsts(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "stats.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok || g.Tok != token.CONST {
			continue
		}
		for _, spec := range g.Specs {
			for _, n := range spec.(*ast.ValueSpec).Names {
				if n.Name != "numCounters" {
					names = append(names, n.Name)
				}
			}
		}
	}
	return names
}
