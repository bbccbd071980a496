package pti

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// facadeOptionSurface is every exported option function of the facade,
// sorted. Adding or removing a knob means editing this list, so the
// change shows up in review as a test diff.
var facadeOptionSurface = []string{
	"Eager",
	"WithAdaptiveRTO", // deprecated no-op
	"WithBinary",
	"WithCacheCapacity",
	"WithConstructor",
	"WithDownloadPaths",
	"WithHeartbeat",
	"WithInvokeConcurrency",
	"WithInvokePacing",
	"WithMaxAttempts",
	"WithMaxBackoff",
	"WithMaxRedials",
	"WithMinRTO",
	"WithObserver",
	"WithOverflowPolicy",
	"WithPolicy",
	"WithRedialBackoff",
	"WithReliableLinks",
	"WithRetransmitTimeout",
	"WithSOAP",
	"WithSendQueue",
	"WithStore",
	"WithStoreDir",
	"WithSuspectAfter",
	"WithTypeName",
	"WithVirtualClock",
	"WithWindow",
}

// TestFacadeOptionSurface pins the facade's option surface: the
// exported functions in options.go and store.go that return one of
// the option types.
func TestFacadeOptionSurface(t *testing.T) {
	optionTypes := map[string]bool{
		"Option": true, "RegisterOption": true, "PeerOption": true,
		"ReliableOption": true, "FabricOption": true,
	}
	fset := token.NewFileSet()
	var got []string
	for _, file := range []string{"options.go", "store.go"} {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			res := fn.Type.Results
			if res == nil || len(res.List) != 1 {
				continue
			}
			if id, ok := res.List[0].Type.(*ast.Ident); ok && optionTypes[id.Name] {
				got = append(got, fn.Name.Name)
			}
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(facadeOptionSurface, " ") {
		t.Errorf("facade option surface changed:\n got  %v\n want %v", got, facadeOptionSurface)
	}
}
