package cliutil

import (
	"strings"
	"testing"
)

func TestTablePlain(t *testing.T) {
	tab := &Table{Headers: []string{"a", "long-header"}}
	tab.Add(1, "x")
	tab.Add("yy", 234)
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "long-header") {
		t.Errorf("header missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[2], "1 ") {
		t.Errorf("row misaligned: %q", lines[2])
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{Markdown: true, Headers: []string{"h1", "h2"}}
	tab.Add("v", 2)
	s := tab.String()
	if !strings.Contains(s, "| h1 | h2 |") {
		t.Errorf("markdown header missing:\n%s", s)
	}
	if !strings.Contains(s, "| -- | -- |") {
		t.Errorf("markdown separator missing:\n%s", s)
	}
	if !strings.Contains(s, "| v  | 2  |") {
		t.Errorf("markdown row missing:\n%s", s)
	}
}

func TestTableShortRow(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b", "c"}}
	tab.Add("only")
	if s := tab.String(); !strings.Contains(s, "only") {
		t.Errorf("short row mangled:\n%s", s)
	}
}
