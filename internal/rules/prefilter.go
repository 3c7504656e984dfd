package rules

import (
	"math/bits"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Regex conditions dominate the engine's per-event cost, and most
// shipped patterns are literal sets in disguise: `^(create|write)$`,
// `^/api/`, `\.(locked|enc|crypt|encrypted)$`, a case-folded list of
// miner strings. compileMatcher walks each pattern's parse tree once
// (litsOf, the one place literals are derived from a pattern) and
// picks how the condition is decided:
//
//   - a pattern whose whole language is a small set of ASCII literals,
//     anchored at both ends, at one end or not at all, is decided by
//     set membership, HasPrefix, HasSuffix or contains-any, with no
//     regexp engine;
//   - any other pattern keeps its regexp behind a guard: the literals
//     every match must contain, scanned in one pass, reject most
//     values before the regexp runs;
//   - a pattern with neither runs the regexp alone.
//
// ASCII case folding is exact only on ASCII input: under (?i) Go's
// regexp also folds ſ (U+017F) to s and K (U+212A) to k. A folded
// literal found in a value is always a regexp match too, but a miss
// is trusted only when the value is all ASCII; otherwise the regexp
// decides.

// matchMode is how a compiled regex condition decides a value.
type matchMode uint8

const (
	modeRegexp   matchMode = iota // the regexp alone
	modeGuard                     // lits rule values out; the regexp decides the rest
	modeExact                     // the value is one of lits
	modePrefix                    // the value starts with one of lits
	modeSuffix                    // the value ends with one of lits
	modeContains                  // the value contains one of lits
)

// maxSetLits caps how far alternations and concatenations expand into
// a literal set; a larger language keeps its regexp.
const maxSetLits = 32

// matcher is a compiled regex condition. It is immutable, and shared
// by every copy of its Condition.
type matcher struct {
	re   *regexp.Regexp // the reference, and the fallback
	mode matchMode
	lits litSet
}

// compileMatcher compiles pattern and classifies it.
func compileMatcher(pattern string) (*matcher, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	m := &matcher{re: re}
	m.mode, m.lits = classify(pattern)
	return m, nil
}

// match reports what m.re.MatchString(v) reports.
func (m *matcher) match(v string) bool {
	if m.mode == modeRegexp {
		return m.re.MatchString(v)
	}
	hit, sure := m.lits.find(v, m.mode)
	switch {
	case hit && m.mode != modeGuard:
		return true
	case !hit && sure:
		return false
	}
	return m.re.MatchString(v)
}

// classify is the one walk of pattern's parse tree: a literal set with
// the mode it decides, a guard, or modeRegexp when neither is proven.
func classify(pattern string) (matchMode, litSet) {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return modeRegexp, litSet{}
	}
	re = re.Simplify()
	mode, body := modeContains, re
	if re.Op == syntax.OpConcat {
		// Perl syntax is one-line: ^ and $ parse as OpBeginText and
		// OpEndText, which Simplify leaves at the ends of a concat.
		subs := re.Sub
		begin := len(subs) > 0 && subs[0].Op == syntax.OpBeginText
		if begin {
			subs = subs[1:]
		}
		end := len(subs) > 0 && subs[len(subs)-1].Op == syntax.OpEndText
		if end {
			subs = subs[:len(subs)-1]
		}
		switch {
		case begin && end:
			mode = modeExact
		case begin:
			mode = modePrefix
		case end:
			mode = modeSuffix
		}
		body = &syntax.Regexp{Op: syntax.OpConcat, Sub: subs}
	}
	l, ok := litsOf(body)
	if !ok {
		return modeRegexp, litSet{}
	}
	if l.exact && allASCII(l.set) {
		return mode, newLitSet(l.set)
	}
	if minHintLen(l.set) < 2 || len(l.set) > maxSetLits {
		// One-byte guards reject too little to pay for the scan, and
		// litSet indexes at most maxSetLits folded literals.
		return modeRegexp, litSet{}
	}
	return modeGuard, newLitSet(l.set)
}

// litHint is one literal of a set: matched byte for byte, or under
// ASCII case folding (lowercase, with at least one letter) when fold
// is set.
type litHint struct {
	lit  string
	fold bool
}

// lits is what litsOf proves about a subexpression: every match of it
// contains one of set, and when exact is true every match is one of
// set — the subexpression's whole language.
type lits struct {
	set   []litHint
	exact bool
}

// litsOf walks the parse tree. ok is false when no literal is
// required. The result is sound, not complete.
func litsOf(re *syntax.Regexp) (lits, bool) {
	switch re.Op {
	case syntax.OpLiteral:
		h, ok := literalHint(re)
		return lits{set: []litHint{h}, exact: true}, ok
	case syntax.OpEmptyMatch:
		return lits{set: []litHint{{}}, exact: true}, true
	case syntax.OpCharClass:
		var set []litHint
		for i := 0; i+1 < len(re.Rune); i += 2 {
			if re.Rune[i+1] >= utf8.RuneSelf || len(set)+int(re.Rune[i+1]-re.Rune[i]) >= maxSetLits {
				return lits{}, false
			}
			for r := re.Rune[i]; r <= re.Rune[i+1]; r++ {
				set = append(set, litHint{lit: string(r)})
			}
		}
		return lits{set: set, exact: true}, len(set) > 0
	case syntax.OpCapture:
		return litsOf(re.Sub[0])
	case syntax.OpPlus:
		// x+ contains an x; its language is infinite.
		l, ok := litsOf(re.Sub[0])
		return lits{set: l.set}, ok
	case syntax.OpQuest:
		if l, ok := litsOf(re.Sub[0]); ok && l.exact && len(l.set) < maxSetLits {
			return lits{set: append(l.set[:len(l.set):len(l.set)], litHint{}), exact: true}, true
		}
	case syntax.OpConcat:
		return concatLits(re.Sub)
	case syntax.OpAlternate:
		// Every branch must carry its own requirement or the union
		// proves nothing; the union is exact when every branch is.
		var out lits
		out.exact = true
		for _, sub := range re.Sub {
			l, ok := litsOf(sub)
			if !ok {
				return lits{}, false
			}
			out.set = append(out.set, l.set...)
			out.exact = out.exact && l.exact
		}
		if out.exact && len(out.set) > maxSetLits {
			out.exact = false
		}
		return out, len(out.set) > 0
	}
	// Star, any-char, anchors inside the body, word boundaries:
	// nothing required.
	return lits{}, false
}

// concatLits: when every part is an exact set, the concatenation's
// language is their product, kept while it stays small and every
// product literal has one fold mode. Otherwise every part must match,
// so any part's requirement is a requirement of the whole; the most
// selective one is kept.
func concatLits(subs []*syntax.Regexp) (lits, bool) {
	prod := []litHint{{}}
	exact := true
	var best []litHint
	bestLen := 0
	for _, sub := range subs {
		l, ok := litsOf(sub)
		if !ok {
			exact = false
			continue
		}
		if n := minHintLen(l.set); n > bestLen {
			best, bestLen = l.set, n
		}
		if exact = exact && l.exact; exact {
			prod, exact = product(prod, l.set)
		}
	}
	if exact {
		return lits{set: prod, exact: true}, true
	}
	return lits{set: best}, bestLen > 0
}

// product concatenates every literal of a with every literal of b. It
// fails past maxSetLits, or when a folded literal would meet a plain
// one that has letters: the result could not say which part folds.
func product(a, b []litHint) ([]litHint, bool) {
	if len(a)*len(b) > maxSetLits {
		return nil, false
	}
	out := make([]litHint, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			if x.fold && !y.fold && hasLetter(y.lit) || y.fold && !x.fold && hasLetter(x.lit) {
				return nil, false
			}
			out = append(out, litHint{lit: x.lit + y.lit, fold: x.fold || y.fold})
		}
	}
	return out, true
}

// literalHint converts an OpLiteral node. A (?i) literal is plain when
// none of its runes has another case (SimpleFold maps it to itself),
// and folded when pure ASCII, where a byte-wise case-insensitive scan
// is exact on ASCII input; other folding (пароль, é) is left to the
// regexp engine. A literal holding U+FFFD is dropped too: the regexp
// matches it against any invalid UTF-8 byte, which no byte scan can
// see.
func literalHint(re *syntax.Regexp) (litHint, bool) {
	lit := string(re.Rune)
	if len(re.Rune) == 0 || strings.ContainsRune(lit, utf8.RuneError) {
		return litHint{}, false
	}
	if re.Flags&syntax.FoldCase == 0 || !slices.ContainsFunc(re.Rune, folds) {
		return litHint{lit: lit}, true
	}
	if !isASCII(lit) {
		return litHint{}, false
	}
	return litHint{lit: strings.ToLower(lit), fold: true}, true
}

// folds reports whether r has another case.
func folds(r rune) bool { return unicode.SimpleFold(r) != r }

func hasLetter(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i] | 0x20; 'a' <= c && c <= 'z' {
			return true
		}
	}
	return false
}

func allASCII(set []litHint) bool {
	for _, h := range set {
		if !isASCII(h.lit) {
			return false
		}
	}
	return true
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func minHintLen(hints []litHint) int {
	if len(hints) == 0 {
		return 0
	}
	n := len(hints[0].lit)
	for _, h := range hints[1:] {
		n = min(n, len(h.lit))
	}
	return n
}

// litSet holds a compiled condition's literals, deduplicated: plain
// ones compared byte for byte, folded ones (sorted) lowercase and
// compared under ASCII case folding. first[c] has bit i set when
// folded[i] starts with c in either case.
type litSet struct {
	plain  []string
	folded []string
	first  [256]uint32
}

func newLitSet(set []litHint) litSet {
	var s litSet
	for _, h := range set {
		switch {
		case !h.fold:
			if !slices.Contains(s.plain, h.lit) {
				s.plain = append(s.plain, h.lit)
			}
		case !slices.Contains(s.folded, h.lit):
			s.folded = append(s.folded, h.lit)
		}
	}
	slices.Sort(s.folded)
	for i, l := range s.folded {
		bit := uint32(1) << i
		s.first[l[0]] |= bit
		if 'a' <= l[0] && l[0] <= 'z' {
			s.first[l[0]-('a'-'A')] |= bit
		}
	}
	return s
}

// find reports whether v holds one of the set's literals the way mode
// says (modeGuard looks for one anywhere, as modeContains does). A hit
// is always a regexp match too. A miss is sure unless the set has
// folded literals and v is not all ASCII.
func (s *litSet) find(v string, mode matchMode) (hit, sure bool) {
	switch mode {
	case modeExact:
		for _, l := range s.plain {
			if v == l {
				return true, true
			}
		}
		for _, l := range s.folded {
			if len(v) == len(l) && hasPrefixFold(v, l) {
				return true, true
			}
		}
	case modePrefix:
		for _, l := range s.plain {
			if strings.HasPrefix(v, l) {
				return true, true
			}
		}
		for _, l := range s.folded {
			if hasPrefixFold(v, l) {
				return true, true
			}
		}
	case modeSuffix:
		for _, l := range s.plain {
			if strings.HasSuffix(v, l) {
				return true, true
			}
		}
		for _, l := range s.folded {
			if len(v) >= len(l) && hasPrefixFold(v[len(v)-len(l):], l) {
				return true, true
			}
		}
	default:
		for _, l := range s.plain {
			if strings.Contains(v, l) {
				return true, true
			}
		}
		if len(s.folded) > 0 {
			return s.containsFolded(v)
		}
		return false, true
	}
	return false, len(s.folded) == 0 || isASCII(v)
}

// containsFolded scans v once for every folded literal: only the
// literals the first-byte table admits at a position are compared
// there. The scan sees every byte, so it also reports whether v is
// all ASCII.
func (s *litSet) containsFolded(v string) (hit, ascii bool) {
	var seen byte
	for i := 0; i < len(v); i++ {
		c := v[i]
		seen |= c
		for m := s.first[c]; m != 0; m &= m - 1 {
			if hasPrefixFold(v[i:], s.folded[bits.TrailingZeros32(m)]) {
				return true, true
			}
		}
	}
	return false, seen < utf8.RuneSelf
}

// hasPrefixFold is strings.HasPrefix under ASCII case folding; lower
// is already lowercase.
func hasPrefixFold(s, lower string) bool {
	if len(s) < len(lower) {
		return false
	}
	for i := 0; i < len(lower); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}
