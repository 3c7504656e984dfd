package minilang

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Value is a minilang runtime value: Str, Number, List, or Nil.
type Value interface{ valueKind() string }

// Str is a string value.
type Str string

func (Str) valueKind() string { return "string" }

// Number is a numeric value.
type Number float64

func (Number) valueKind() string { return "number" }

// List is a list value.
type List []Value

func (List) valueKind() string { return "list" }

// Nil is the absent value.
type Nil struct{}

func (Nil) valueKind() string { return "nil" }

// Format renders a value for print output.
func Format(v Value) string {
	switch t := v.(type) {
	case Str:
		return string(t)
	case Number:
		return strconv.FormatFloat(float64(t), 'g', -1, 64)
	case List:
		parts := make([]string, len(t))
		for i, e := range t {
			parts[i] = Format(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case Nil, nil:
		return "nil"
	}
	return fmt.Sprintf("%v", v)
}

// Truthy reports whether a value counts as true.
func Truthy(v Value) bool {
	switch t := v.(type) {
	case Str:
		return t != ""
	case Number:
		return t != 0
	case List:
		return len(t) > 0
	default:
		return false
	}
}

// Host provides the interpreter's view of the outside world. The
// kernel binds it to the virtual filesystem and a network gateway;
// the audit layer wraps it to record provenance.
type Host interface {
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte) error
	DeleteFile(path string) error
	RenameFile(oldPath, newPath string) error
	ListFiles(dir string) ([]string, error)
	// HTTPRequest performs a simulated outbound request and returns
	// the status code and response body.
	HTTPRequest(method, url string, body []byte) (int, []byte, error)
	// Shell runs a command in the simulated terminal context.
	Shell(cmd string) (string, error)
	// Spin accounts for cpuMillis of simulated compute.
	Spin(cpuMillis int64)
	Hostname() string
	Env(name string) string
}

// RuntimeError is an execution failure, carrying the failing line and
// an exception-style name used in error outputs.
type RuntimeError struct {
	Line  int
	EName string
	Msg   string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("minilang: line %d: %s: %s", e.Line, e.EName, e.Msg)
}

func rte(line int, ename, format string, args ...any) *RuntimeError {
	return &RuntimeError{Line: line, EName: ename, Msg: fmt.Sprintf(format, args...)}
}

// ErrTooManySteps is wrapped into the RuntimeError when the step
// budget is exhausted (infinite-loop protection).
var ErrTooManySteps = errors.New("step budget exhausted")

// Limits bounds an execution, the kernel's sandbox policy.
type Limits struct {
	MaxSteps       int   // statements+expressions evaluated (default 1e6)
	MaxOutputBytes int   // stdout bytes (default 1 MiB)
	MaxValueBytes  int   // max single string value (default 16 MiB)
	MaxSpinMillis  int64 // cap per spin() call (default 60000)
}

func (l Limits) withDefaults() Limits {
	if l.MaxSteps <= 0 {
		l.MaxSteps = 1_000_000
	}
	if l.MaxOutputBytes <= 0 {
		l.MaxOutputBytes = 1 << 20
	}
	if l.MaxValueBytes <= 0 {
		l.MaxValueBytes = 16 << 20
	}
	if l.MaxSpinMillis <= 0 {
		l.MaxSpinMillis = 60_000
	}
	return l
}

// rt is the runtime substrate shared by both execution engines: the
// host binding, limits, stdout buffer, step budget, and the usage
// counters the kernel snapshots for resource-abuse detection. The
// builtins operate on rt, so the tree-walker and the bytecode VM call
// the exact same primitive implementations.
type rt struct {
	host   Host
	limits Limits
	stdout *strings.Builder
	steps  int

	// Usage accounting for resource-abuse detection. Exported via
	// struct embedding so engine users read them directly.
	CPUMillis    int64
	BytesRead    int64
	BytesWritten int64
	NetBytes     int64
	NetCalls     int
	ShellCalls   int
}

// Counters is a snapshot of an engine's cumulative resource-usage
// accounting, read by the kernel before and after each execution to
// emit per-cell deltas.
type Counters struct {
	CPUMillis    int64
	BytesRead    int64
	BytesWritten int64
	NetBytes     int64
	NetCalls     int
	ShellCalls   int
}

// Counters snapshots the usage counters. Promoted onto both engines
// via rt embedding.
func (r *rt) Counters() Counters {
	return Counters{
		CPUMillis:    r.CPUMillis,
		BytesRead:    r.BytesRead,
		BytesWritten: r.BytesWritten,
		NetBytes:     r.NetBytes,
		NetCalls:     r.NetCalls,
		ShellCalls:   r.ShellCalls,
	}
}

// TakeStdout returns and clears accumulated stdout.
func (r *rt) TakeStdout() string {
	s := r.stdout.String()
	r.stdout.Reset()
	return s
}

func (r *rt) tick(line int) error {
	r.steps++
	if r.steps > r.limits.MaxSteps {
		return rte(line, "ResourceError", "%v (%d)", ErrTooManySteps, r.limits.MaxSteps)
	}
	return nil
}

// charge consumes n ticks at once. The VM uses it to account for a
// whole instruction's worth of interpreter steps; crossing the budget
// anywhere inside the batch reports the same error the per-tick path
// would, at the same line.
func (r *rt) charge(n int, line int) error {
	r.steps += n
	if r.steps > r.limits.MaxSteps {
		return rte(line, "ResourceError", "%v (%d)", ErrTooManySteps, r.limits.MaxSteps)
	}
	return nil
}

func boolVal(b bool) Value {
	if b {
		return Number(1)
	}
	return Number(0)
}

// indexValue applies the indexing operator. Shared by both engines so
// error text and negative-index semantics cannot drift.
func indexValue(base, idxV Value, ln int) (Value, error) {
	idx, ok := idxV.(Number)
	if !ok {
		return nil, rte(ln, "TypeError", "index must be a number")
	}
	i := int(idx)
	switch b := base.(type) {
	case List:
		if i < 0 {
			i += len(b)
		}
		if i < 0 || i >= len(b) {
			return nil, rte(ln, "IndexError", "index %d out of range (len %d)", int(idx), len(b))
		}
		return b[i], nil
	case Str:
		if i < 0 {
			i += len(b)
		}
		if i < 0 || i >= len(b) {
			return nil, rte(ln, "IndexError", "index %d out of range (len %d)", int(idx), len(b))
		}
		return Str(b[i : i+1]), nil
	default:
		return nil, rte(ln, "TypeError", "cannot index %s", base.valueKind())
	}
}

// applyBin applies a non-logical binary operator to two evaluated
// operands. It is the single source of truth for operator semantics:
// the tree-walker, the VM's non-number slow path, and the compiler's
// constant folder all call it, so results and error text cannot
// diverge between engines.
func applyBin(op tokKind, left, right Value, ln int, maxValueBytes int) (Value, error) {
	switch op {
	case tokPlus:
		switch l := left.(type) {
		case Number:
			if r, ok := right.(Number); ok {
				return l + r, nil
			}
		case Str:
			if r, ok := right.(Str); ok {
				if len(l)+len(r) > maxValueBytes {
					return nil, rte(ln, "ResourceError", "string exceeds %d bytes", maxValueBytes)
				}
				return l + r, nil
			}
		case List:
			if r, ok := right.(List); ok {
				out := make(List, 0, len(l)+len(r))
				return append(append(out, l...), r...), nil
			}
		}
		return nil, rte(ln, "TypeError", "cannot add %s and %s", left.valueKind(), right.valueKind())
	case tokMinus, tokStar, tokSlash, tokPercent:
		l, lok := left.(Number)
		r, rok := right.(Number)
		if op == tokStar {
			// "ab" * 3 string repetition.
			if ls, ok := left.(Str); ok && rok {
				n := int(r)
				if n < 0 || len(ls)*n > maxValueBytes {
					return nil, rte(ln, "ResourceError", "repetition exceeds limit")
				}
				return Str(strings.Repeat(string(ls), n)), nil
			}
		}
		if !lok || !rok {
			return nil, rte(ln, "TypeError", "arithmetic needs numbers, got %s and %s", left.valueKind(), right.valueKind())
		}
		switch op {
		case tokMinus:
			return l - r, nil
		case tokStar:
			return l * r, nil
		case tokSlash:
			if r == 0 {
				return nil, rte(ln, "ZeroDivisionError", "division by zero")
			}
			return l / r, nil
		case tokPercent:
			// Modulo truncates both operands; the guard must test the
			// truncated divisor or a fractional r in (-1, 1) panics the
			// runtime (e.g. 1 % 0.5).
			if int64(r) == 0 {
				return nil, rte(ln, "ZeroDivisionError", "modulo by zero")
			}
			return Number(int64(l) % int64(r)), nil
		}
	case tokEq:
		return boolVal(valueEq(left, right)), nil
	case tokNeq:
		return boolVal(!valueEq(left, right)), nil
	case tokLt, tokGt, tokLe, tokGe:
		cmp, err := valueCmp(left, right)
		if err != nil {
			return nil, rte(ln, "TypeError", "%v", err)
		}
		switch op {
		case tokLt:
			return boolVal(cmp < 0), nil
		case tokGt:
			return boolVal(cmp > 0), nil
		case tokLe:
			return boolVal(cmp <= 0), nil
		case tokGe:
			return boolVal(cmp >= 0), nil
		}
	}
	return nil, rte(ln, "InternalError", "unknown operator")
}

func valueEq(a, b Value) bool {
	switch l := a.(type) {
	case Str:
		r, ok := b.(Str)
		return ok && l == r
	case Number:
		r, ok := b.(Number)
		return ok && l == r
	case Nil:
		_, ok := b.(Nil)
		return ok
	case List:
		r, ok := b.(List)
		if !ok || len(l) != len(r) {
			return false
		}
		for i := range l {
			if !valueEq(l[i], r[i]) {
				return false
			}
		}
		return true
	}
	return false
}

func valueCmp(a, b Value) (int, error) {
	if l, ok := a.(Number); ok {
		if r, ok := b.(Number); ok {
			switch {
			case l < r:
				return -1, nil
			case l > r:
				return 1, nil
			}
			return 0, nil
		}
	}
	if l, ok := a.(Str); ok {
		if r, ok := b.(Str); ok {
			return strings.Compare(string(l), string(r)), nil
		}
	}
	return 0, fmt.Errorf("cannot compare %s and %s", a.valueKind(), b.valueKind())
}

// invokeBuiltin checks existence and arity, invokes fn, and wraps
// non-minilang errors as OSError — after arguments have been
// evaluated, matching the interpreter's historical order (argument
// side effects happen even for unknown functions). Shared by both
// engines.
func invokeBuiltin(in *rt, name string, fn *builtin, ln int, args []Value) (Value, error) {
	if fn == nil {
		return nil, rte(ln, "NameError", "unknown function %q", name)
	}
	if fn.arity >= 0 && len(args) != fn.arity {
		return nil, rte(ln, "TypeError", "%s() takes %d arguments, got %d", name, fn.arity, len(args))
	}
	v, err := fn.impl(in, ln, args)
	if err != nil {
		if _, ok := err.(*RuntimeError); ok {
			return nil, err
		}
		return nil, rte(ln, "OSError", "%s: %v", name, err)
	}
	return v, nil
}

type builtin struct {
	arity int // -1 = variadic
	impl  func(in *rt, line int, args []Value) (Value, error)
}

func argStr(line int, name string, args []Value, i int) (string, error) {
	s, ok := args[i].(Str)
	if !ok {
		return "", rte(line, "TypeError", "%s: argument %d must be a string, got %s", name, i+1, args[i].valueKind())
	}
	return string(s), nil
}

func argNum(line int, name string, args []Value, i int) (float64, error) {
	n, ok := args[i].(Number)
	if !ok {
		return 0, rte(line, "TypeError", "%s: argument %d must be a number, got %s", name, i+1, args[i].valueKind())
	}
	return float64(n), nil
}

var (
	builtinNamesOnce sync.Once
	builtinNames     []string
)

// BuiltinNames returns the sorted list of builtin function names —
// used by detection rules that key on dangerous primitives and by
// the kernel's completion handler on every request. The slice is
// computed once and shared; callers must not mutate it.
func BuiltinNames() []string {
	builtinNamesOnce.Do(func() {
		builtinNames = make([]string, 0, len(builtins))
		for name := range builtins {
			builtinNames = append(builtinNames, name)
		}
		sort.Strings(builtinNames)
	})
	return builtinNames
}

var builtins = map[string]*builtin{
	"print": {arity: -1, impl: func(in *rt, line int, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = Format(a)
		}
		out := strings.Join(parts, " ") + "\n"
		if in.stdout.Len()+len(out) > in.limits.MaxOutputBytes {
			return nil, rte(line, "ResourceError", "stdout exceeds %d bytes", in.limits.MaxOutputBytes)
		}
		in.stdout.WriteString(out)
		return Nil{}, nil
	}},
	"len": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		switch v := args[0].(type) {
		case Str:
			return Number(len(v)), nil
		case List:
			return Number(len(v)), nil
		}
		return nil, rte(line, "TypeError", "len: needs string or list")
	}},
	"str": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		return Str(Format(args[0])), nil
	}},
	"num": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		s, err := argStr(line, "num", args, 0)
		if err != nil {
			if n, ok := args[0].(Number); ok {
				return n, nil
			}
			return nil, err
		}
		f, perr := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if perr != nil {
			return nil, rte(line, "ValueError", "num: %q", s)
		}
		return Number(f), nil
	}},
	"range": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		n, err := argNum(line, "range", args, 0)
		if err != nil {
			return nil, err
		}
		if n < 0 || n > 1e6 {
			return nil, rte(line, "ValueError", "range: %g out of bounds", n)
		}
		out := make(List, int(n))
		// Bulk-copy the pre-boxed prefix: element-wise boxing is the
		// hot path of range-driven loops on both engines.
		k := copy(out, smallNumList[:min(len(out), len(smallNumList))])
		for i := k; i < len(out); i++ {
			out[i] = Number(i)
		}
		return out, nil
	}},
	"append": {arity: 2, impl: func(in *rt, line int, args []Value) (Value, error) {
		l, ok := args[0].(List)
		if !ok {
			return nil, rte(line, "TypeError", "append: first argument must be a list")
		}
		out := make(List, 0, len(l)+1)
		return append(append(out, l...), args[1]), nil
	}},
	"split": {arity: 2, impl: func(in *rt, line int, args []Value) (Value, error) {
		s, err := argStr(line, "split", args, 0)
		if err != nil {
			return nil, err
		}
		sep, err := argStr(line, "split", args, 1)
		if err != nil {
			return nil, err
		}
		parts := strings.Split(s, sep)
		out := make(List, len(parts))
		for i, p := range parts {
			out[i] = Str(p)
		}
		return out, nil
	}},
	"join": {arity: 2, impl: func(in *rt, line int, args []Value) (Value, error) {
		l, ok := args[0].(List)
		if !ok {
			return nil, rte(line, "TypeError", "join: first argument must be a list")
		}
		sep, err := argStr(line, "join", args, 1)
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(l))
		for i, v := range l {
			parts[i] = Format(v)
		}
		return Str(strings.Join(parts, sep)), nil
	}},
	"contains": {arity: 2, impl: func(in *rt, line int, args []Value) (Value, error) {
		s, err := argStr(line, "contains", args, 0)
		if err != nil {
			return nil, err
		}
		sub, err := argStr(line, "contains", args, 1)
		if err != nil {
			return nil, err
		}
		return boolVal(strings.Contains(s, sub)), nil
	}},
	"upper": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		s, err := argStr(line, "upper", args, 0)
		if err != nil {
			return nil, err
		}
		return Str(strings.ToUpper(s)), nil
	}},
	"lower": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		s, err := argStr(line, "lower", args, 0)
		if err != nil {
			return nil, err
		}
		return Str(strings.ToLower(s)), nil
	}},
	"sha256": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		s, err := argStr(line, "sha256", args, 0)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256([]byte(s))
		return Str(hex.EncodeToString(sum[:])), nil
	}},
	"b64encode": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		s, err := argStr(line, "b64encode", args, 0)
		if err != nil {
			return nil, err
		}
		return Str(base64.StdEncoding.EncodeToString([]byte(s))), nil
	}},
	"b64decode": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		s, err := argStr(line, "b64decode", args, 0)
		if err != nil {
			return nil, err
		}
		out, derr := base64.StdEncoding.DecodeString(s)
		if derr != nil {
			return nil, rte(line, "ValueError", "b64decode: %v", derr)
		}
		return Str(out), nil
	}},

	// encrypt/decrypt implement a deterministic SHA-256 keystream
	// cipher: real enough to produce ~8 bits/byte entropy output (the
	// ransomware signal) while trivially reversible for tests.
	"encrypt": {arity: 2, impl: func(in *rt, line int, args []Value) (Value, error) {
		data, err := argStr(line, "encrypt", args, 0)
		if err != nil {
			return nil, err
		}
		key, err := argStr(line, "encrypt", args, 1)
		if err != nil {
			return nil, err
		}
		return Str(xorKeystream([]byte(data), key)), nil
	}},
	"decrypt": {arity: 2, impl: func(in *rt, line int, args []Value) (Value, error) {
		data, err := argStr(line, "decrypt", args, 0)
		if err != nil {
			return nil, err
		}
		key, err := argStr(line, "decrypt", args, 1)
		if err != nil {
			return nil, err
		}
		return Str(xorKeystream([]byte(data), key)), nil
	}},

	// ---- Host-mediated primitives (the audited attack surface) ----
	"read_file": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		p, err := argStr(line, "read_file", args, 0)
		if err != nil {
			return nil, err
		}
		data, rerr := in.host.ReadFile(p)
		if rerr != nil {
			return nil, rerr
		}
		in.BytesRead += int64(len(data))
		return Str(data), nil
	}},
	"write_file": {arity: 2, impl: func(in *rt, line int, args []Value) (Value, error) {
		p, err := argStr(line, "write_file", args, 0)
		if err != nil {
			return nil, err
		}
		data, err := argStr(line, "write_file", args, 1)
		if err != nil {
			return nil, err
		}
		if werr := in.host.WriteFile(p, []byte(data)); werr != nil {
			return nil, werr
		}
		in.BytesWritten += int64(len(data))
		return Nil{}, nil
	}},
	"delete_file": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		p, err := argStr(line, "delete_file", args, 0)
		if err != nil {
			return nil, err
		}
		return Nil{}, in.host.DeleteFile(p)
	}},
	"rename_file": {arity: 2, impl: func(in *rt, line int, args []Value) (Value, error) {
		oldP, err := argStr(line, "rename_file", args, 0)
		if err != nil {
			return nil, err
		}
		newP, err := argStr(line, "rename_file", args, 1)
		if err != nil {
			return nil, err
		}
		return Nil{}, in.host.RenameFile(oldP, newP)
	}},
	"list_files": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		dir, err := argStr(line, "list_files", args, 0)
		if err != nil {
			return nil, err
		}
		names, lerr := in.host.ListFiles(dir)
		if lerr != nil {
			return nil, lerr
		}
		out := make(List, len(names))
		for i, n := range names {
			out[i] = Str(n)
		}
		return out, nil
	}},
	"http_get": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		url, err := argStr(line, "http_get", args, 0)
		if err != nil {
			return nil, err
		}
		status, body, herr := in.host.HTTPRequest("GET", url, nil)
		if herr != nil {
			return nil, herr
		}
		in.NetCalls++
		in.NetBytes += int64(len(body))
		_ = status
		return Str(body), nil
	}},
	"http_post": {arity: 2, impl: func(in *rt, line int, args []Value) (Value, error) {
		url, err := argStr(line, "http_post", args, 0)
		if err != nil {
			return nil, err
		}
		body, err := argStr(line, "http_post", args, 1)
		if err != nil {
			return nil, err
		}
		status, _, herr := in.host.HTTPRequest("POST", url, []byte(body))
		if herr != nil {
			return nil, herr
		}
		in.NetCalls++
		in.NetBytes += int64(len(body))
		return Number(status), nil
	}},
	"shell": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		cmd, err := argStr(line, "shell", args, 0)
		if err != nil {
			return nil, err
		}
		out, serr := in.host.Shell(cmd)
		if serr != nil {
			return nil, serr
		}
		in.ShellCalls++
		return Str(out), nil
	}},
	"spin": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		ms, err := argNum(line, "spin", args, 0)
		if err != nil {
			return nil, err
		}
		millis := int64(ms)
		if millis < 0 {
			return nil, rte(line, "ValueError", "spin: negative duration")
		}
		if millis > in.limits.MaxSpinMillis {
			millis = in.limits.MaxSpinMillis
		}
		in.host.Spin(millis)
		in.CPUMillis += millis
		return Nil{}, nil
	}},
	"hostname": {arity: 0, impl: func(in *rt, line int, args []Value) (Value, error) {
		return Str(in.host.Hostname()), nil
	}},
	"env": {arity: 1, impl: func(in *rt, line int, args []Value) (Value, error) {
		name, err := argStr(line, "env", args, 0)
		if err != nil {
			return nil, err
		}
		return Str(in.host.Env(name)), nil
	}},
}

// xorKeystream applies a SHA-256 counter-mode keystream derived from
// key. Involutive: applying twice with the same key restores input.
func xorKeystream(data []byte, key string) string {
	out := make([]byte, len(data))
	var block [32]byte
	var counter uint64
	bi := 32 // force initial block
	for i := range data {
		if bi == 32 {
			h := sha256.New()
			h.Write([]byte(key))
			var ctr [8]byte
			for j := 0; j < 8; j++ {
				ctr[j] = byte(counter >> (8 * j))
			}
			h.Write(ctr[:])
			copy(block[:], h.Sum(nil))
			counter++
			bi = 0
		}
		out[i] = data[i] ^ block[bi]
		bi++
	}
	return string(out)
}
