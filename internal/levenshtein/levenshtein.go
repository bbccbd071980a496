// Package levenshtein implements the Levenshtein edit distance used by
// the name-conformance rule of Pragmatic Type Interoperability (ICDCS
// 2003, Section 4.2 aspect (i), citing Levenshtein 1965).
//
// The paper compares type and member names case-insensitively and
// declares them name-conformant when the distance is zero; it notes
// that wildcards "could be allowed" as a generalization. This package
// provides the metric, case-folded variants, and the wildcard matcher
// so the conformance policy can enable either extension. Names are
// decoded, and folded, into stack buffers, so comparing them
// allocates nothing.
package levenshtein

import "unicode"

// stackRunes is the name length, in runes, up to which the functions
// below decode their arguments into stack buffers. Longer names spill
// to the heap; the results are the same.
const stackRunes = 64

// appendRunes appends the runes of s to dst, each lowercased with
// unicode.ToLower when fold is set. This is rune for rune what
// []rune(strings.ToLower(s)) yields, without building the string.
func appendRunes(dst []rune, s string, fold bool) []rune {
	for _, r := range s {
		if fold {
			r = unicode.ToLower(r)
		}
		dst = append(dst, r)
	}
	return dst
}

// Distance returns the Levenshtein edit distance between a and b: the
// minimum number of single-rune insertions, deletions and
// substitutions required to transform a into b. It runs in O(len(a) *
// len(b)) time and O(min(len(a), len(b))) space.
func Distance(a, b string) int { return distance(a, b, false) }

// DistanceFold returns the Levenshtein distance between a and b after
// Unicode case folding, matching the paper's "names are considered to
// be case insensitive".
func DistanceFold(a, b string) int { return distance(a, b, true) }

func distance(a, b string, fold bool) int {
	if a == b {
		return 0
	}
	var abuf, bbuf [stackRunes]rune
	ra, rb := appendRunes(abuf[:0], a, fold), appendRunes(bbuf[:0], b, fold)
	// Keep the shorter string in rb so the row buffer stays small.
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	if len(rb) == 0 {
		return len(ra)
	}

	var rowBuf [stackRunes + 1]int
	row := rowBuf[:0]
	if len(rb)+1 > len(rowBuf) {
		row = make([]int, 0, len(rb)+1)
	}
	for j := 0; j <= len(rb); j++ {
		row = append(row, j)
	}
	for i := 1; i <= len(ra); i++ {
		prev := row[0] // row[i-1][j-1]
		row[0] = i
		for j := 1; j <= len(rb); j++ {
			cur := row[j] // row[i-1][j]
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			row[j] = min(row[j]+1, row[j-1]+1, prev+cost)
			prev = cur
		}
	}
	return row[len(rb)]
}

// WithinDistance reports whether Distance(a, b) <= k without always
// computing the full matrix: it applies the length-difference lower
// bound, then runs a banded dynamic program that visits only the
// cells within k of the diagonal — O(k·n) instead of O(n·m). This is
// the hot path of member-name matching in the conformance rules.
func WithinDistance(a, b string, k int) bool { return within(a, b, k, false) }

// WithinDistanceFold is WithinDistance after Unicode case folding.
func WithinDistanceFold(a, b string, k int) bool { return within(a, b, k, true) }

func within(a, b string, k int, fold bool) bool {
	if k < 0 {
		return false
	}
	if a == b {
		return true
	}
	var abuf, bbuf [stackRunes]rune
	return WithinRunes(appendRunes(abuf[:0], a, fold), appendRunes(bbuf[:0], b, fold), k)
}

// WithinRunes is WithinDistance over decoded runes. Its two DP bands
// live on the stack while 2k+1 <= 16, so it allocates nothing for
// the distances the name rules use.
func WithinRunes(ra, rb []rune, k int) bool {
	if k < 0 {
		return false
	}
	if len(ra) < len(rb) {
		ra, rb = rb, ra
	}
	diff := len(ra) - len(rb)
	if diff > k {
		return false
	}
	if len(rb) == 0 {
		return len(ra) <= k
	}
	return bandedWithin(ra, rb, k)
}

// bandedWithin runs the Levenshtein DP restricted to the diagonal
// band of width 2k+1. Cells outside the band are treated as infinity.
func bandedWithin(ra, rb []rune, k int) bool {
	const inf = int(^uint(0) >> 1)
	width := 2*k + 1
	var prevBuf, curBuf [16]int
	prev, cur := prevBuf[:], curBuf[:]
	if width > len(prevBuf) {
		prev, cur = make([]int, width), make([]int, width)
	}
	prev, cur = prev[:width], cur[:width]
	// Band cell c in row i corresponds to column j = i - k + c.
	for c := 0; c < width; c++ {
		j := 0 - k + c
		if j >= 0 && j <= len(rb) {
			prev[c] = j
		} else {
			prev[c] = inf
		}
	}
	for i := 1; i <= len(ra); i++ {
		for c := 0; c < width; c++ {
			j := i - k + c
			if j < 0 || j > len(rb) {
				cur[c] = inf
				continue
			}
			if j == 0 {
				cur[c] = i
				continue
			}
			best := inf
			// Substitution / match: prev row, same band offset.
			if prev[c] != inf {
				cost := 1
				if ra[i-1] == rb[j-1] {
					cost = 0
				}
				best = prev[c] + cost
			}
			// Deletion from ra: prev row, band offset c+1.
			if c+1 < width && prev[c+1] != inf && prev[c+1]+1 < best {
				best = prev[c+1] + 1
			}
			// Insertion into ra: current row, band offset c-1.
			if c-1 >= 0 && cur[c-1] != inf && cur[c-1]+1 < best {
				best = cur[c-1] + 1
			}
			cur[c] = best
		}
		prev, cur = cur, prev
	}
	final := prev[len(rb)-len(ra)+k]
	return final != inf && final <= k
}

// MatchWildcard reports whether name matches pattern, where pattern
// may contain '*' (any run of runes, including empty) and '?' (exactly
// one rune). Matching is case-sensitive; MatchWildcardFold is the
// paper's case-insensitive form.
func MatchWildcard(pattern, name string) bool { return match(pattern, name, false) }

// MatchWildcardFold is MatchWildcard after Unicode case folding.
func MatchWildcardFold(pattern, name string) bool { return match(pattern, name, true) }

func match(pattern, name string, fold bool) bool {
	var pbuf, nbuf [stackRunes]rune
	return matchWildcard(appendRunes(pbuf[:0], pattern, fold), appendRunes(nbuf[:0], name, fold))
}

func matchWildcard(p, n []rune) bool {
	// Iterative two-pointer matcher with star backtracking.
	var (
		pi, ni int
		starPi = -1
		starNi int
	)
	for ni < len(n) {
		switch {
		case pi < len(p) && (p[pi] == '?' || p[pi] == n[ni]):
			pi++
			ni++
		case pi < len(p) && p[pi] == '*':
			starPi = pi
			starNi = ni
			pi++
		case starPi >= 0:
			pi = starPi + 1
			starNi++
			ni = starNi
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '*' {
		pi++
	}
	return pi == len(p)
}
