package dpreverser_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// docPath matches a cmd/… or examples/… path named in the docs.
var docPath = regexp.MustCompile(`\b(?:cmd|examples)/[\w./-]*`)

// TestEntryPointsDocumented keeps the docs in step with the entry points:
// every directory of the module that holds package main is named in
// doc.go and in DESIGN.md's executables table, and every cmd/… or
// examples/… path that README.md, DESIGN.md or doc.go names exists.
func TestEntryPointsDocumented(t *testing.T) {
	mains := mainPackageDirs(t)
	if len(mains) == 0 {
		t.Fatal("no package main directory found")
	}

	named := map[string]map[string]bool{}
	for _, doc := range []string{"README.md", "DESIGN.md", "doc.go"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		named[doc] = docPaths(string(body))
		for p := range named[doc] {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(design), "| Binary | Purpose |")
	if start < 0 {
		t.Fatal(`DESIGN.md has no executables table ("| Binary | Purpose |")`)
	}
	table, _, _ := strings.Cut(string(design)[start:], "\n\n")
	inTable := docPaths(table)

	for _, dir := range mains {
		if !named["doc.go"][dir] {
			t.Errorf("doc.go does not name the entry point %s", dir)
		}
		if !inTable[dir] {
			t.Errorf("DESIGN.md's executables table does not name the entry point %s", dir)
		}
	}
}

// docPaths returns the cmd/… and examples/… paths text names, without
// trailing punctuation.
func docPaths(text string) map[string]bool {
	paths := map[string]bool{}
	for _, p := range docPath.FindAllString(text, -1) {
		paths[strings.TrimRight(p, "./")] = true
	}
	return paths
}

// mainPackageDirs lists, slash-separated and sorted, the directories of
// this module that hold package main. Nested modules (bench/), testdata
// and hidden directories are not part of it.
func mainPackageDirs(t *testing.T) []string {
	t.Helper()
	dirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			dirs[filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(dirs))
	for dir := range dirs {
		out = append(out, dir)
	}
	sort.Strings(out)
	return out
}
