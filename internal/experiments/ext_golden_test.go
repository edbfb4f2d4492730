package experiments

// Pinned extension-experiment goldens: the results of ExtTuples,
// ExtRobustness, ExtEvolution, ExtAliasing, ExtPerturbation, ExtNetwork,
// ExtCluster, ExtRules and the scores behind AuthenticityReport, at
// TestOptions() and the arguments their own tests pass, compared exactly
// (floats as math.Float64bits hex, regions by code).
//
// testdata/ext_*_golden.json were generated at commit 0ffed99 (the
// parent of the change that made BuildCuisine copy the region counters
// instead of walking the recipes) by running
//
//	go test ./internal/experiments -run 'Ext|Authenticity' -update-ext-golden
//
// A change that is meant to move these numbers regenerates them the same
// way and says so; any other diff against them is a bug.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"culinary/internal/flavornet"
	"culinary/internal/recipedb"
)

var updateExtGolden = flag.Bool("update-ext-golden", false, "rewrite testdata/ext_*_golden.json from the current code")

// goldenValue renders v as JSON-ready data in which every float64 is its
// Float64bits hex, every value with a Code method (a region) is its code,
// and struct fields and map entries are keyed by name, so marshalled
// output compares exactly and reads without the Go types.
func goldenValue(v reflect.Value) any {
	if c, ok := v.Interface().(interface{ Code() string }); ok {
		return c.Code()
	}
	switch v.Kind() {
	case reflect.Float64:
		return floatBits(v.Float())
	case reflect.Bool:
		return v.Bool()
	case reflect.String:
		return v.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int()
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return goldenValue(v.Elem())
	case reflect.Slice, reflect.Array:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = goldenValue(v.Index(i))
		}
		return out
	case reflect.Map:
		out := make(map[string]any, v.Len())
		for it := v.MapRange(); it.Next(); {
			out[fmt.Sprint(goldenValue(it.Key()))] = goldenValue(it.Value())
		}
		return out
	case reflect.Struct:
		out := make(map[string]any, v.NumField())
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				out[f.Name] = goldenValue(v.Field(i))
			}
		}
		return out
	}
	panic(fmt.Sprintf("goldenValue: unsupported kind %s", v.Kind()))
}

// appendGolden appends v as indented JSON, except that a value whose
// compact form fits in 140 bytes stays on one line, so a golden of many
// small records reads one record per line.
func appendGolden(b []byte, v any, indent string) ([]byte, error) {
	flat, err := json.Marshal(v)
	if err != nil || len(flat) <= 140 {
		return append(b, flat...), err
	}
	inner := indent + "  "
	switch v := v.(type) {
	case []any:
		b = append(b, '[')
		for i, e := range v {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendGolden(append(append(b, '\n'), inner...), e, inner); err != nil {
				return nil, err
			}
		}
		return append(append(append(b, '\n'), indent...), ']'), nil
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = append(b, '{')
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			key, _ := json.Marshal(k)
			b = append(append(append(append(b, '\n'), inner...), key...), ": "...)
			if b, err = appendGolden(b, v[k], inner); err != nil {
				return nil, err
			}
		}
		return append(append(append(b, '\n'), indent...), '}'), nil
	}
	return append(b, flat...), nil
}

// matchExtGolden compares got, rendered by goldenValue, with
// testdata/ext_<name>_golden.json (or rewrites the file under
// -update-ext-golden).
func matchExtGolden(t *testing.T, name string, got any) {
	t.Helper()
	path := fmt.Sprintf("testdata/ext_%s_golden.json", name)
	enc, err := appendGolden(nil, goldenValue(reflect.ValueOf(got)), "")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if *updateExtGolden {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Errorf("%s drifted from %s:\n got %s\nwant %s", name, path, enc, want)
	}
}

// authenticityGolden is what AuthenticityReport(k) renders, unrounded:
// each major region's top-k authentic ingredients and their scores.
func authenticityGolden(t *testing.T, e *Env, k int) map[string]any {
	t.Helper()
	out := make(map[string]any)
	for _, r := range recipedb.MajorRegions() {
		ids, scores, err := flavornet.TopAuthentic(e.Store, r, k)
		if err != nil {
			t.Fatal(err)
		}
		out[r.Code()] = map[string]any{"ids": ids, "scores": scores}
	}
	return out
}
