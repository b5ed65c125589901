package scenario

// A self-contained parser for the YAML subset the scenario format uses —
// block mappings and sequences nested by indentation, scalars
// (null/bool/int/float/plain and quoted strings), flow lists of scalars,
// and comments. No anchors, tags, multi-line strings, or multi-document
// streams: scenarios are flat declarative data, and a ~200-line strict
// parser the repository owns beats a dependency the container cannot
// fetch. Anything outside the subset is rejected with a line-numbered
// error rather than guessed at.

import (
	"fmt"
	"strconv"
	"strings"
)

type yamlLine struct {
	indent int
	text   string
	num    int // 1-based source line
}

// parseYAML decodes data into the generic tree decode.go consumes:
// map[string]any, []any, string, int64, float64, bool, nil.
func parseYAML(data []byte) (any, error) {
	lines, err := splitYAMLLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("empty document")
	}
	p := &yamlParser{lines: lines}
	v, err := p.parseValue(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, fmt.Errorf("line %d: unexpected content %q (bad indentation?)", p.lines[p.pos].num, p.lines[p.pos].text)
	}
	return v, nil
}

// splitYAMLLines strips comments and blank lines and records indentation.
func splitYAMLLines(data []byte) ([]yamlLine, error) {
	var out []yamlLine
	for num, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, " \r")
		if line == "" {
			continue
		}
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, fmt.Errorf("line %d: tab indentation is not allowed; use spaces", num+1)
		}
		text := stripComment(line[indent:])
		text = strings.TrimRight(text, " ")
		if text == "" {
			continue
		}
		out = append(out, yamlLine{indent: indent, text: text, num: num + 1})
	}
	return out, nil
}

// stripComment removes a trailing "# ..." comment that is outside quotes
// and, mid-line, preceded by a space. Inside double quotes a backslash
// escapes the next character, so \" does not close the string.
func stripComment(s string) string {
	var quote byte
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote == '"' && c == '\\':
			i++
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '\'' || c == '"':
			quote = c
		case c == '#' && (i == 0 || s[i-1] == ' '):
			return s[:i]
		}
	}
	return s
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// parseValue parses the block starting at the current line, which must sit
// at exactly the given indent.
func (p *yamlParser) parseValue(indent int) (any, error) {
	ln := p.lines[p.pos]
	if ln.indent != indent {
		return nil, fmt.Errorf("line %d: inconsistent indentation (got %d spaces, block uses %d)", ln.num, ln.indent, indent)
	}
	if ln.text == "-" || strings.HasPrefix(ln.text, "- ") {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *yamlParser) parseMapping(indent int) (any, error) {
	m := map[string]any{}
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("line %d: inconsistent indentation (got %d spaces, block uses %d)", ln.num, ln.indent, indent)
		}
		if ln.text == "-" || strings.HasPrefix(ln.text, "- ") {
			return nil, fmt.Errorf("line %d: sequence item in a mapping block", ln.num)
		}
		key, rest, err := splitKey(ln)
		if err != nil {
			return nil, err
		}
		if _, dup := m[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate key %q", ln.num, key)
		}
		p.pos++
		if rest != "" {
			v, err := parseScalar(rest, ln.num)
			if err != nil {
				return nil, err
			}
			m[key] = v
			continue
		}
		// Value is the nested block on the following deeper-indented
		// lines; a key with nothing nested is null.
		if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
			v, err := p.parseValue(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			m[key] = v
		} else {
			m[key] = nil
		}
	}
	return m, nil
}

func (p *yamlParser) parseSequence(indent int) (any, error) {
	var seq []any
	for p.pos < len(p.lines) {
		ln := p.lines[p.pos]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, fmt.Errorf("line %d: inconsistent indentation (got %d spaces, block uses %d)", ln.num, ln.indent, indent)
		}
		if ln.text != "-" && !strings.HasPrefix(ln.text, "- ") {
			return nil, fmt.Errorf("line %d: expected a \"- \" sequence item", ln.num)
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		if rest == "" {
			// "-" alone: the item is the nested block below.
			p.pos++
			if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
				v, err := p.parseValue(p.lines[p.pos].indent)
				if err != nil {
					return nil, err
				}
				seq = append(seq, v)
			} else {
				seq = append(seq, nil)
			}
			continue
		}
		if isMappingStart(rest) {
			// "- key: ..." starts a mapping item: re-read this line as the
			// mapping's first entry, two columns deeper (where its
			// continuation lines sit).
			p.lines[p.pos] = yamlLine{indent: indent + 2, text: rest, num: ln.num}
			v, err := p.parseMapping(indent + 2)
			if err != nil {
				return nil, err
			}
			seq = append(seq, v)
			continue
		}
		v, err := parseScalar(rest, ln.num)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
		p.pos++
	}
	return seq, nil
}

// splitKey splits "key:" or "key: value" and validates the key.
func splitKey(ln yamlLine) (key, rest string, err error) {
	i := strings.Index(ln.text, ":")
	if i < 0 {
		return "", "", fmt.Errorf("line %d: expected \"key: value\", got %q", ln.num, ln.text)
	}
	key = ln.text[:i]
	if key == "" || strings.ContainsAny(key, " '\"[]{},") {
		return "", "", fmt.Errorf("line %d: invalid key %q", ln.num, key)
	}
	rest = strings.TrimLeft(ln.text[i+1:], " ")
	if rest != "" && ln.text[i+1] != ' ' {
		return "", "", fmt.Errorf("line %d: missing space after %q:", ln.num, key)
	}
	return key, rest, nil
}

// isMappingStart reports whether a sequence item's inline text begins a
// mapping ("key: value" / "key:") rather than a scalar containing a colon.
func isMappingStart(s string) bool {
	i := strings.Index(s, ":")
	if i <= 0 {
		return false
	}
	if strings.ContainsAny(s[:i], " '\"[]{},") {
		return false
	}
	return i+1 == len(s) || s[i+1] == ' '
}

// parseScalar decodes an inline value: quoted string, flow list, or plain
// scalar (null/bool/number/string).
func parseScalar(s string, num int) (any, error) {
	switch {
	case strings.HasPrefix(s, "["):
		return parseFlowList(s, num)
	case strings.HasPrefix(s, "'"):
		if len(s) < 2 || !strings.HasSuffix(s, "'") {
			return nil, fmt.Errorf("line %d: unterminated single-quoted string", num)
		}
		body := s[1 : len(s)-1]
		if strings.Contains(strings.ReplaceAll(body, "''", ""), "'") {
			return nil, fmt.Errorf("line %d: stray quote in single-quoted string", num)
		}
		return strings.ReplaceAll(body, "''", "'"), nil
	case strings.HasPrefix(s, "\""):
		v, err := strconv.Unquote(s)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad double-quoted string %s", num, s)
		}
		return v, nil
	case strings.HasPrefix(s, "{"):
		return nil, fmt.Errorf("line %d: flow mappings {...} are not supported; use block form", num)
	case strings.HasPrefix(s, "&") || strings.HasPrefix(s, "*") || strings.HasPrefix(s, "!"):
		return nil, fmt.Errorf("line %d: YAML anchors, aliases and tags are not supported", num)
	case strings.HasPrefix(s, "|") || strings.HasPrefix(s, ">"):
		return nil, fmt.Errorf("line %d: block scalars (| and >) are not supported; keep strings on one line", num)
	}
	switch s {
	case "null", "~":
		return nil, nil
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f, nil
	}
	return s, nil
}

// parseFlowList decodes "[a, b, c]" with scalar elements.
func parseFlowList(s string, num int) (any, error) {
	if !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("line %d: unterminated flow list %q", num, s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	if body == "" {
		return []any{}, nil
	}
	if strings.ContainsAny(body, "[]{}") {
		return nil, fmt.Errorf("line %d: nested flow collections are not supported", num)
	}
	var out []any
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("line %d: empty element in flow list %q", num, s)
		}
		v, err := parseScalar(part, num)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
