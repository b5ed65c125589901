package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzScenario feeds arbitrary bytes through the whole scenario front end:
// Parse, Normalize, Validate, Emit and Parse again. It must never panic,
// every rejection must be a "scenario:" error, and an accepted document's
// canonical form must re-parse, re-validate and emit the same bytes again.
// The seeds are the kitchen-sink document, its golden canonical form, the
// committed scenario library and one description that needs escaping.
func FuzzScenario(f *testing.F) {
	files, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append([]string{"testdata/kitchen_sink.yaml", "testdata/kitchen_sink.golden"}, files...) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A description whose canonical form escapes quotes around a '#'.
	f.Add([]byte("name: quoted\n" + `description: 'say "hi #1"'` + "\nprotocol:\n  name: cogcast\n" +
		"topology:\n  nodes: 8\n  channels_per_node: 2\n  min_overlap: 1\n  generator: shared-core\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err == nil {
			sc.Normalize()
			err = sc.Validate()
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "scenario: ") {
				t.Fatalf("rejection is not a scenario error: %v", err)
			}
			return
		}
		first := sc.Emit()
		re, err := Parse(first)
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, first)
		}
		re.Normalize()
		if err := re.Validate(); err != nil {
			t.Fatalf("canonical form does not re-validate: %v\n%s", err, first)
		}
		if second := re.Emit(); !bytes.Equal(first, second) {
			t.Fatalf("emit is not a fixed point:\n--- first\n%s--- second\n%s", first, second)
		}
	})
}
