package scenario

// Strict mapping from the generic parsed tree (YAML or JSON) onto the
// Scenario struct: every field name is checked against the schema (the
// `key` tags on Scenario and its section types), every value against its
// field's type, and anything unknown is an error — a scenario that parses
// is a scenario whose every line means something.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
)

// Load reads, parses, normalizes and validates a scenario file. This is
// the one-call entry point cmd/cogsim and the CI matrix use.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sc.Normalize()
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Parse decodes scenario bytes — YAML by default, JSON when the document
// starts with '{' — into a Scenario, rejecting unknown fields and
// mistyped values. The result is not yet normalized or validated.
func Parse(data []byte) (*Scenario, error) {
	var (
		tree any
		err  error
	)
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.UseNumber()
		if err = dec.Decode(&tree); err != nil {
			return nil, fmt.Errorf("scenario: bad JSON: %v", err)
		}
		tree = normalizeJSON(tree)
	} else {
		tree, err = parseYAML(data)
		if err != nil {
			return nil, fmt.Errorf("scenario: %v", err)
		}
	}
	root, ok := tree.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: document must be a mapping, got %s", typeName(tree))
	}
	sc := &Scenario{}
	if err := decodeStruct(root, reflect.ValueOf(sc).Elem(), ""); err != nil {
		return nil, err
	}
	return sc, nil
}

// normalizeJSON converts json.Number leaves to int64/float64 so JSON and
// YAML feed the decoder the same scalar types.
func normalizeJSON(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = normalizeJSON(e)
		}
		return x
	case []any:
		for i, e := range x {
			x[i] = normalizeJSON(e)
		}
		return x
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return i
		}
		f, _ := x.Float64()
		return f
	default:
		return v
	}
}

// decodeStruct fills the struct v from the mapping m. Every field names
// its key with a `key:"..."` tag, so the schema is the struct declaration.
// Unknown keys are reported first (the lexicographically first one, for a
// deterministic message); fields then decode in declaration order, so the
// first error follows the schema rather than the document. A null or
// absent scalar or list keeps its zero value; a null section is an error.
func decodeStruct(m map[string]any, v reflect.Value, path string) error {
	t := v.Type()
	keys := make([]string, t.NumField())
	for i := range keys {
		keys[i] = t.Field(i).Tag.Get("key")
	}
	var unknown []string
	for k := range m {
		if !slices.Contains(keys, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		where := path
		if where == "" {
			where = "the top level"
		}
		return fmt.Errorf("scenario: unknown field %q in %s", slices.Min(unknown), where)
	}
	for i, key := range keys {
		x, ok := m[key]
		if !ok || x == nil && t.Field(i).Type.Kind() != reflect.Struct {
			continue
		}
		if err := decodeValue(x, v.Field(i), joinPath(path, key)); err != nil {
			return err
		}
	}
	return nil
}

// decodeValue stores the generic value x into v, checking its type.
func decodeValue(x any, v reflect.Value, path string) error {
	want := ""
	switch v.Kind() {
	case reflect.Struct:
		if m, ok := x.(map[string]any); ok {
			return decodeStruct(m, v, path)
		}
		want = "a mapping"
	case reflect.String:
		if s, ok := x.(string); ok {
			v.SetString(s)
			return nil
		}
		want = "a string"
	case reflect.Int, reflect.Int64:
		if i, ok := x.(int64); ok {
			v.SetInt(i)
			return nil
		}
		want = "an integer"
	case reflect.Float64:
		switch n := x.(type) {
		case float64:
			v.SetFloat(n)
			return nil
		case int64:
			v.SetFloat(float64(n))
			return nil
		}
		want = "a number"
	case reflect.Bool:
		if b, ok := x.(bool); ok {
			v.SetBool(b)
			return nil
		}
		want = "true or false"
	case reflect.Slice:
		if seq, ok := x.([]any); ok {
			v.Set(reflect.MakeSlice(v.Type(), len(seq), len(seq)))
			for i, e := range seq {
				if err := decodeValue(e, v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
					return err
				}
			}
			return nil
		}
		want = "a list"
		if v.Type().Elem().Kind() == reflect.Int {
			want = "a list of integers"
		}
	}
	return fmt.Errorf("scenario: %s: want %s, got %s", path, want, typeName(x))
}

func joinPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// typeName names a generic value's type in error messages.
func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case string:
		return "a string"
	case bool:
		return "a boolean"
	case int64:
		return "an integer"
	case float64:
		return "a number"
	case []any:
		return "a list"
	case map[string]any:
		return "a mapping"
	default:
		return strings.TrimPrefix(fmt.Sprintf("%T", v), "scenario.")
	}
}
