package scenario

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestParseRejects pins the exact error for every class of malformed
// document: unknown fields, mistyped values, and YAML outside the
// supported subset. The messages are part of the CLI surface (`cogsim
// validate` prints them), so they are asserted verbatim.
func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{
			"unknown top-level field",
			"name: x\ntopologie:\n  nodes: 4\n",
			`scenario: unknown field "topologie" in the top level`,
		},
		{
			"unknown topology field",
			"name: x\ntopology:\n  node_count: 4\n",
			`scenario: unknown field "node_count" in topology`,
		},
		{
			"unknown event field",
			"events:\n  - kind: blackout\n    slot: 3\n",
			`scenario: unknown field "slot" in events[0]`,
		},
		{
			"unknown assertion field",
			"assertions:\n  - kind: completed-by\n    bound: 3\n",
			`scenario: unknown field "bound" in assertions[0]`,
		},
		{
			"string where integer expected",
			"topology:\n  nodes: many\n",
			`scenario: topology.nodes: want an integer, got a string`,
		},
		{
			"integer where string expected",
			"name: 7\n",
			`scenario: name: want a string, got an integer`,
		},
		{
			"float where integer expected",
			"seed: 1.5\n",
			`scenario: seed: want an integer, got a number`,
		},
		{
			"string where boolean expected",
			"engine:\n  check: yes\n",
			`scenario: engine.check: want true or false, got a string`,
		},
		{
			"scalar where mapping expected",
			"topology: big\n",
			`scenario: topology: want a mapping, got a string`,
		},
		{
			"mapping where list expected",
			"events:\n  kind: blackout\n",
			`scenario: events: want a list, got a mapping`,
		},
		{
			"string element in node list",
			"events:\n  - kind: blackout\n    nodes: [1, two]\n",
			`scenario: events[0].nodes[1]: want an integer, got a string`,
		},
		{
			"sequence document",
			"- a\n- b\n",
			`scenario: document must be a mapping, got a list`,
		},
		{
			"tab indentation",
			"name: x\ntopology:\n\tnodes: 4\n",
			`scenario: line 3: tab indentation is not allowed; use spaces`,
		},
		{
			"duplicate key",
			"name: x\nname: y\n",
			`scenario: line 2: duplicate key "name"`,
		},
		{
			"flow mapping",
			"topology: {nodes: 4}\n",
			`scenario: line 1: flow mappings {...} are not supported; use block form`,
		},
		{
			"block scalar",
			"description: |\n  long text\n",
			`scenario: line 1: block scalars (| and >) are not supported; keep strings on one line`,
		},
		{
			"anchor",
			"name: &base x\n",
			`scenario: line 1: YAML anchors, aliases and tags are not supported`,
		},
		{
			"missing space after colon",
			"name:x\n",
			`scenario: line 1: missing space after "name":`,
		},
		{
			"inconsistent indentation",
			"topology:\n  nodes: 4\n    generator: full\n",
			`scenario: line 3: inconsistent indentation (got 4 spaces, block uses 2)`,
		},
		{
			"bad JSON",
			`{"name": }`,
			`scenario: bad JSON: invalid character '}' looking for beginning of value`,
		},
		{
			"empty document",
			"# only a comment\n",
			`scenario: empty document`,
		},
		{
			"null section",
			"name: x\ntopology:\n",
			`scenario: topology: want a mapping, got null`,
		},
		{
			"scalar event",
			"events:\n  - 3\n",
			`scenario: events[0]: want a mapping, got an integer`,
		},
		{
			"scalar where integer list expected",
			"events:\n  - kind: blackout\n    nodes: 3\n",
			`scenario: events[0].nodes: want a list of integers, got an integer`,
		},
		{
			"string where number expected",
			"recovery:\n  outage_rate: high\n",
			`scenario: recovery.outage_rate: want a number, got a string`,
		},
		{
			"float where int64 expected",
			"assertions:\n  - kind: value-equals\n    value: 1.5\n",
			`scenario: assertions[0].value: want an integer, got a number`,
		},
		{
			"unknown field beside a mistyped one",
			"topology:\n  nodes: many\n  bogus: 1\n",
			`scenario: unknown field "bogus" in topology`,
		},
		{
			"unknown top-level field beside a mistyped one",
			"name: 7\nbogus: 1\n",
			`scenario: unknown field "bogus" in the top level`,
		},
		{
			"first error in schema order, not document order",
			"seed: x\nname: 7\n",
			`scenario: name: want a string, got an integer`,
		},
		{
			"first error in schema order, JSON",
			`{"seed": "x", "name": 7}`,
			`scenario: name: want a string, got an integer`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("Parse accepted %q", tc.doc)
			}
			if err.Error() != tc.want {
				t.Fatalf("error = %q, want %q", err, tc.want)
			}
		})
	}
}

// TestParseJSONEquivalence: the same scenario as YAML and as JSON decodes
// to the same struct.
func TestParseJSONEquivalence(t *testing.T) {
	yamlDoc := `
name: twin
seed: 7
topology:
  nodes: 16
  channels_per_node: 8
  min_overlap: 2
  generator: shared-core
protocol:
  name: cogcast
events:
  - kind: assignment-flip
    at: 3
`
	jsonDoc := `{
  "name": "twin", "seed": 7,
  "topology": {"nodes": 16, "channels_per_node": 8, "min_overlap": 2, "generator": "shared-core"},
  "protocol": {"name": "cogcast"},
  "events": [{"kind": "assignment-flip", "at": 3}]
}`
	fromYAML, err := Parse([]byte(yamlDoc))
	if err != nil {
		t.Fatalf("YAML: %v", err)
	}
	fromJSON, err := Parse([]byte(jsonDoc))
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	fromYAML.Normalize()
	fromJSON.Normalize()
	if string(fromYAML.Emit()) != string(fromJSON.Emit()) {
		t.Fatalf("YAML and JSON decode differently:\n%s\nvs\n%s", fromYAML.Emit(), fromJSON.Emit())
	}
}

// TestParseScalars covers the scalar corners of the YAML subset: quoting,
// comments, and the null forms.
func TestParseScalars(t *testing.T) {
	doc := strings.Join([]string{
		"name: 'it''s quoted'  # trailing comment",
		`description: "tab\there"`,
		"seed: 42",
		"protocol:",
		"  name: cogcast  # comments strip outside quotes",
		"  payload: 'a # not a comment'",
	}, "\n")
	sc, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "it's quoted" {
		t.Errorf("Name = %q", sc.Name)
	}
	if sc.Description != "tab\there" {
		t.Errorf("Description = %q", sc.Description)
	}
	if sc.Protocol.Payload != "a # not a comment" {
		t.Errorf("Payload = %q", sc.Protocol.Payload)
	}
	if sc.Seed != 42 {
		t.Errorf("Seed = %d", sc.Seed)
	}
	// An escaped quote does not end a double-quoted string, so the # after
	// it is not a comment.
	sc, err = Parse([]byte("protocol:\n" + `  payload: "say \"hi #1\""  # comment`))
	if err != nil {
		t.Fatal(err)
	}
	if want := `say "hi #1"`; sc.Protocol.Payload != want {
		t.Errorf("Payload = %q, want %q", sc.Protocol.Payload, want)
	}
	// Null or empty scalars and lists decode to zero values, and a float
	// field takes an integer.
	sc, err = Parse([]byte("seed: ~\nrecovery:\n  outage_rate: 0\nevents:\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 0 || sc.Recovery.OutageRate != 0.0 || sc.Events != nil {
		t.Errorf("Seed, OutageRate, Events = %d, %v, %#v; want 0, 0, nil", sc.Seed, sc.Recovery.OutageRate, sc.Events)
	}
}

// TestLibraryJSONEquivalence: every committed scenario's parse tree,
// re-encoded as JSON, decodes to the same Scenario as the YAML file.
func TestLibraryJSONEquivalence(t *testing.T) {
	for _, f := range scenarioFiles(t) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fromYAML, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		tree, err := parseYAML(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		doc, err := json.Marshal(tree)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		fromJSON, err := Parse(doc)
		if err != nil {
			t.Fatalf("%s as JSON: %v\n%s", f, err, doc)
		}
		if !reflect.DeepEqual(fromYAML, fromJSON) {
			t.Fatalf("%s: YAML and JSON decode differently:\n%#v\nvs\n%#v", f, fromYAML, fromJSON)
		}
	}
}
