package slim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"testing"

	"slim/internal/candidates"
)

// TestBenchLinkConfigMirrorsTheDefaults reads cmd/slim-bench/link.go
// without building it: its linkConfig writes slim-link's defaults out by
// hand, as literals, for the benchmark's traced in-process pass, which
// fails when its link count differs from the slim-link run's. Every field
// a slim.Config or slim.LSHConfig literal there sets must equal the one
// slim.Defaults() or candidates.DefaultParams() gives, so a changed
// default fails here, in the library's own tests, and not first in the
// benchmark. The benchmark module reading the defaults itself (ROADMAP
// item 8) retires this test.
func TestBenchLinkConfigMirrorsTheDefaults(t *testing.T) {
	const path = "cmd/slim-bench/link.go"
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fn *ast.FuncDecl
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Name.Name == "linkConfig" {
			fn = d
		}
	}
	if fn == nil {
		t.Fatalf("%s has no linkConfig; if the benchmark now reads the library's defaults (ROADMAP item 8), delete this test", path)
	}
	// The exported constants a mirror may name, by identifier.
	consts := map[string]any{
		"MatcherGreedy":   MatcherGreedy,
		"ThresholdGMM":    ThresholdGMM,
		"ThresholdOtsu":   ThresholdOtsu,
		"ThresholdKMeans": ThresholdKMeans,
		"ThresholdNone":   ThresholdNone,
	}
	defaults := map[string]reflect.Value{
		"Config":    reflect.ValueOf(Defaults()),
		"LSHConfig": reflect.ValueOf(candidates.DefaultParams()),
	}
	checked := map[string]int{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		sel, ok := lit.Type.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		def, ok := defaults[sel.Sel.Name]
		if !ok {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				t.Errorf("%s: linkConfig's %s literal is not keyed", path, sel.Sel.Name)
				continue
			}
			field := kv.Key.(*ast.Ident).Name
			want := def.FieldByName(field)
			got, ok := mirrorValue(kv.Value, consts)
			if !ok {
				t.Errorf("%s: linkConfig sets %s.%s to an expression this test cannot read", path, sel.Sel.Name, field)
				continue
			}
			// The zero Matcher is greedy, the only matcher.
			if field == "Matcher" && want.String() == "" {
				want = reflect.ValueOf(MatcherGreedy)
			}
			if !sameValue(got, want) {
				t.Errorf("%s: linkConfig sets %s.%s to %v, but the library's default is %v: update the mirror, or make the benchmark read the defaults (ROADMAP item 8)",
					path, sel.Sel.Name, field, got, want)
			}
			checked[sel.Sel.Name]++
		}
		return true
	})
	if checked["Config"] == 0 || checked["LSHConfig"] == 0 {
		t.Fatalf("%s: linkConfig holds no slim.Config or slim.LSHConfig literal (checked %v); if the benchmark now reads the library's defaults (ROADMAP item 8), delete this test", path, checked)
	}
}

// mirrorValue evaluates a literal of the mirror: a number, or one of the
// named exported constants of the slim package.
func mirrorValue(e ast.Expr, consts map[string]any) (any, bool) {
	switch e := e.(type) {
	case *ast.BasicLit:
		if e.Kind != token.INT && e.Kind != token.FLOAT {
			return nil, false
		}
		v, err := strconv.ParseFloat(e.Value, 64)
		return v, err == nil
	case *ast.SelectorExpr:
		v, ok := consts[e.Sel.Name]
		return v, ok
	}
	return nil, false
}

// sameValue compares a mirror's literal with a default's field: numbers
// by value, constants by their string.
func sameValue(got any, want reflect.Value) bool {
	switch want.Kind() {
	case reflect.Int, reflect.Int64:
		f, ok := got.(float64)
		return ok && f == float64(want.Int())
	case reflect.Float64:
		f, ok := got.(float64)
		return ok && f == want.Float()
	case reflect.String:
		g := reflect.ValueOf(got)
		return g.Kind() == reflect.String && g.String() == want.String()
	}
	return false
}
