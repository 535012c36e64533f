package ocr

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// Layout reads a live-data screen's texts as rows (§3.4) and appends them
// to dst. The rule uses only what a camera sees, the boxes' positions:
//
//   - the topmost Y band is the title and is skipped;
//   - every other distinct Y is a row, and Index is its rank by Y;
//   - texts at the title's X are the label;
//   - the leftmost other X in the frame is the value column, and texts
//     further right are the unit;
//   - Parsed and ParseOK come from ParseValue.
//
// A frame whose rows show units but no value text reads the unit column
// as values.
func Layout(texts []Text, dst []Row) []Row {
	title, valueX := columns(texts)
	if !slices.IsSortedFunc(texts, byY) {
		texts = slices.Clone(texts)
		slices.SortStableFunc(texts, byY)
	}
	base, y := len(dst), 0
	for _, t := range texts {
		if t.Y == title.Y {
			continue
		}
		if len(dst) == base || t.Y != y {
			y = t.Y
			dst = append(dst, Row{Index: len(dst) - base})
		}
		r := &dst[len(dst)-1]
		switch t.X {
		case title.X:
			r.Label = t.Content
		case valueX:
			r.Value = t.Content
			r.Parsed, r.ParseOK = ParseValue(t.Content)
		default:
			r.Unit = t.Content
		}
	}
	return dst
}

// ValueTexts appends to dst the indices of the texts Layout reads as
// values, in text order.
func ValueTexts(texts []Text, dst []int) []int {
	title, valueX := columns(texts)
	if valueX == title.X {
		return dst
	}
	for i, t := range texts {
		if t.Y != title.Y && t.X == valueX {
			dst = append(dst, i)
		}
	}
	return dst
}

// columns finds the title (the leftmost text of the topmost Y) and the
// value column's X: the leftmost X below the title other than the
// title's. A frame with no such text has no value column and gets the
// title's X.
func columns(texts []Text) (title Text, valueX int) {
	for i, t := range texts {
		if i == 0 || t.Y < title.Y || t.Y == title.Y && t.X < title.X {
			title = t
		}
	}
	valueX = title.X
	for _, t := range texts {
		if t.Y != title.Y && t.X != title.X && (valueX == title.X || t.X < valueX) {
			valueX = t.X
		}
	}
	return title, valueX
}

// ParseValue reads a value text as a number: strconv.ParseFloat of the
// trimmed text. A text whose first byte cannot start a number skips the
// call: enum cells such as "On" are common, and each failed call
// allocates its error.
func ParseValue(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" || strings.IndexByte("0123456789+-.iInN", s[0]) < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

func byY(a, b Text) int { return cmp.Compare(a.Y, b.Y) }
