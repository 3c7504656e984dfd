package trace

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// decodeLine decodes one JSONL line into e. The hand-written parser
// below handles the lines it can prove it decodes exactly as
// encoding/json would; every other line — and so every error — is
// decided by json.Unmarshal from scratch.
func decodeLine(line []byte, e *Event) error {
	if decodeEventFast(line, e) {
		return nil
	}
	// json.Unmarshal's argument escapes; a copy declared here keeps
	// the fast path's *e off the heap.
	var std Event
	err := json.Unmarshal(line, &std)
	*e = std
	return err
}

// decodeEventFast is the reflection-free decoder of the live ingest
// path. It accepts or declines, it never guesses: a line is accepted
// only when it is one JSON object whose keys are exact, known and
// unique and whose values are of the plain form each field expects
// (see the value methods). On false, e holds garbage and the caller
// must start over with encoding/json.
//
// The line is copied once into a string and every escape-free string
// value is a substring of that copy, so an event costs one allocation
// and a retained event pins its own line and nothing else.
func decodeEventFast(line []byte, e *Event) bool {
	p := lineParser{s: string(line)}
	p.ws()
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return p.atEnd()
	}
	var seen uint32
	for {
		key, ok := p.key()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		var bit uint32
		switch key {
		case "seq":
			bit, ok = 1<<0, p.uint64Val(&e.Seq)
		case "time":
			bit, ok = 1<<1, p.timeVal(&e.Time)
		case "kind":
			bit, ok = 1<<2, p.stringVal((*string)(&e.Kind))
		case "src_ip":
			bit, ok = 1<<3, p.stringVal(&e.SrcIP)
		case "src_port":
			bit, ok = 1<<4, p.intVal(&e.SrcPort)
		case "dst_ip":
			bit, ok = 1<<5, p.stringVal(&e.DstIP)
		case "dst_port":
			bit, ok = 1<<6, p.intVal(&e.DstPort)
		case "user":
			bit, ok = 1<<7, p.stringVal(&e.User)
		case "session":
			bit, ok = 1<<8, p.stringVal(&e.Session)
		case "method":
			bit, ok = 1<<9, p.stringVal(&e.Method)
		case "path":
			bit, ok = 1<<10, p.stringVal(&e.Path)
		case "status":
			bit, ok = 1<<11, p.intVal(&e.Status)
		case "ws_opcode":
			bit, ok = 1<<12, p.stringVal(&e.WSOpcode)
		case "msg_type":
			bit, ok = 1<<13, p.stringVal(&e.MsgType)
		case "channel":
			bit, ok = 1<<14, p.stringVal(&e.Channel)
		case "kernel_id":
			bit, ok = 1<<15, p.stringVal(&e.KernelID)
		case "code":
			bit, ok = 1<<16, p.stringVal(&e.Code)
		case "op":
			bit, ok = 1<<17, p.stringVal(&e.Op)
		case "target":
			bit, ok = 1<<18, p.stringVal(&e.Target)
		case "bytes":
			bit, ok = 1<<19, p.int64Val(&e.Bytes)
		case "entropy":
			bit, ok = 1<<20, p.floatVal(&e.Entropy)
		case "success":
			bit, ok = 1<<21, p.boolVal(&e.Success)
		case "detail":
			bit, ok = 1<<22, p.stringVal(&e.Detail)
		case "cpu_millis":
			bit, ok = 1<<23, p.int64Val(&e.CPUMillis)
		case "fields":
			bit, ok = 1<<24, p.fieldsVal(&e.Fields)
		default:
			// Unknown, or known but for letter case or an escape:
			// encoding/json skips the first and folds the second.
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if !p.eat('}') {
			return false
		}
		return p.atEnd()
	}
}

// lineParser is a cursor over one line's backing string.
type lineParser struct {
	s string
	i int
}

func (p *lineParser) ws() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// atEnd reports whether only whitespace is left.
func (p *lineParser) atEnd() bool {
	p.ws()
	return p.i == len(p.s)
}

func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.s) && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// key reads an object key as raw bytes. A key with an escape ends on
// its backslash here, which no known key does, so it is declined as
// unknown.
func (p *lineParser) key() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	n := strings.IndexByte(p.s[p.i:], '"')
	if n < 0 {
		return "", false
	}
	k := p.s[p.i : p.i+n]
	p.i += n + 1
	return k, true
}

// stringVal reads a JSON string. Without escapes the value is a
// substring of the backing string; with escapes it is unescaped into
// a string of its own. Declined: control characters (a syntax error),
// invalid UTF-8 and surrogate escapes (encoding/json substitutes
// U+FFFD), and null.
func (p *lineParser) stringVal(dst *string) bool {
	if !p.eat('"') {
		return false
	}
	s, i := p.s, p.i
	escaped, high := false, false
	for ; i < len(s) && s[i] != '"'; i++ {
		switch c := s[i]; {
		case c == '\\':
			escaped = true
			i++ // unescape checks the byte skipped here
		case c < 0x20:
			return false
		case c >= utf8.RuneSelf:
			high = true
		}
	}
	if i >= len(s) {
		return false
	}
	raw := s[p.i:i]
	p.i = i + 1
	if high && !utf8.ValidString(raw) {
		return false
	}
	if !escaped {
		*dst = raw
		return true
	}
	return unescape(raw, dst)
}

// unescape decodes the body of a JSON string that stringVal has
// delimited and checked for control characters and UTF-8.
func unescape(raw string, dst *string) bool {
	var sb strings.Builder
	sb.Grow(len(raw))
	for len(raw) > 0 {
		n := strings.IndexByte(raw, '\\')
		if n < 0 {
			sb.WriteString(raw)
			break
		}
		sb.WriteString(raw[:n])
		if n+1 >= len(raw) {
			return false
		}
		c := raw[n+1]
		raw = raw[n+2:]
		switch c {
		case '"', '\\', '/':
			sb.WriteByte(c)
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			if len(raw) < 4 {
				return false
			}
			var r rune
			for _, h := range []byte(raw[:4]) {
				switch {
				case '0' <= h && h <= '9':
					h -= '0'
				case 'a' <= h && h <= 'f':
					h -= 'a' - 10
				case 'A' <= h && h <= 'F':
					h -= 'A' - 10
				default:
					return false
				}
				r = r<<4 | rune(h)
			}
			if 0xD800 <= r && r < 0xE000 {
				return false
			}
			sb.WriteRune(r)
			raw = raw[4:]
		default:
			return false
		}
	}
	*dst = sb.String()
	return true
}

// integer reads an optional minus sign and a JSON integer of at most
// 19 digits, which cannot overflow a uint64. A fraction, an exponent
// or a leading zero leaves a byte behind that is neither ',' nor '}',
// so the caller declines the line.
func (p *lineParser) integer() (mag uint64, neg, ok bool) {
	neg = p.eat('-')
	start := p.i
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		mag = mag*10 + uint64(p.s[p.i]-'0')
		p.i++
	}
	n := p.i - start
	if n == 0 || n > 19 || (n > 1 && p.s[start] == '0') {
		return 0, false, false
	}
	return mag, neg, true
}

func (p *lineParser) uint64Val(dst *uint64) bool {
	mag, neg, ok := p.integer()
	*dst = mag
	return ok && !neg
}

func (p *lineParser) int64Val(dst *int64) bool {
	mag, neg, ok := p.integer()
	if !ok || mag > math.MaxInt64+1 || (mag > math.MaxInt64 && !neg) {
		return false
	}
	*dst = int64(mag) // MaxInt64+1 wraps to MinInt64, its own negation
	if neg {
		*dst = -*dst
	}
	return true
}

func (p *lineParser) intVal(dst *int) bool {
	var v int64
	if !p.int64Val(&v) || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

// floatVal checks the token against the JSON number grammar and hands
// it to the function encoding/json parses it with.
func (p *lineParser) floatVal(dst *float64) bool {
	start := p.i
	p.eat('-')
	if !p.eat('0') && p.digits() == 0 {
		return false
	}
	if p.eat('.') && p.digits() == 0 {
		return false
	}
	if p.eat('e') || p.eat('E') {
		if !p.eat('+') {
			p.eat('-')
		}
		if p.digits() == 0 {
			return false
		}
	}
	v, err := strconv.ParseFloat(p.s[start:p.i], 64)
	*dst = v
	return err == nil
}

func (p *lineParser) digits() int {
	start := p.i
	for p.i < len(p.s) && '0' <= p.s[p.i] && p.s[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

func (p *lineParser) boolVal(dst *bool) bool {
	rest := p.s[p.i:]
	switch {
	case strings.HasPrefix(rest, "true"):
		*dst = true
		p.i += len("true")
	case strings.HasPrefix(rest, "false"):
		*dst = false
		p.i += len("false")
	default:
		return false
	}
	return true
}

// timeVal reads "YYYY-MM-DDTHH:MM:SS[.f{1,9}]Z" with every range
// checked, the one form in which time.Time.UnmarshalJSON and
// time.Date(..., time.UTC) give the same wall, ext and loc. Offsets,
// lower-case letters, a leap second, escapes and longer fractions are
// left to time.Time.UnmarshalJSON.
func (p *lineParser) timeVal(dst *time.Time) bool {
	const base = `"2006-01-02T15:04:05`
	s := p.s[p.i:]
	if len(s) < len(base)+len(`Z"`) || s[0] != '"' ||
		s[5] != '-' || s[8] != '-' || s[11] != 'T' || s[14] != ':' || s[17] != ':' {
		return false
	}
	year, ok0 := atoi(s[1:5])
	month, ok1 := atoi(s[6:8])
	day, ok2 := atoi(s[9:11])
	hour, ok3 := atoi(s[12:14])
	minute, ok4 := atoi(s[15:17])
	sec, ok5 := atoi(s[18:20])
	if !(ok0 && ok1 && ok2 && ok3 && ok4 && ok5) ||
		month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || minute > 59 || sec > 59 {
		return false
	}
	i, nsec := len(base), 0
	if s[i] == '.' {
		i++
		start := i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			nsec = nsec*10 + int(s[i]-'0')
		}
		n := i - start
		if n == 0 || n > 9 {
			return false
		}
		for ; n < 9; n++ {
			nsec *= 10
		}
	}
	if !strings.HasPrefix(s[i:], `Z"`) {
		return false
	}
	p.i += i + len(`Z"`)
	*dst = time.Date(year, time.Month(month), day, hour, minute, sec, nsec, time.UTC)
	return true
}

// atoi reads a fixed-width run of decimal digits.
func atoi(s string) (n int, ok bool) {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, true
}

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// fieldsVal reads a flat object of string values. A repeated key
// keeps its last value, as in encoding/json; {} yields an empty
// non-nil map, as in encoding/json.
func (p *lineParser) fieldsVal(dst *map[string]string) bool {
	if !p.eat('{') {
		return false
	}
	m := map[string]string{}
	p.ws()
	if p.eat('}') {
		*dst = m
		return true
	}
	for {
		var k, v string
		if !p.stringVal(&k) {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		if !p.stringVal(&v) {
			return false
		}
		m[k] = v
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if !p.eat('}') {
			return false
		}
		*dst = m
		return true
	}
}
